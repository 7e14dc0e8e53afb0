// Package vec provides the small dense linear-algebra kernel used by every
// embedding component in the system: float32 vector operations, embedding
// matrices, and initialization schemes.
//
// The per-row operations in this file are straight loops over []float32 with
// the bounds checks hoisted by an explicit length prefix: embeddings here are
// short (tens to hundreds of elements) and a training step touches scattered
// rows, so there is nothing more to win per call. A sweep over a whole table
// is different — the same query against every row — and has its own kernels
// in rows.go, which score four rows per pass and return, bit for bit, what
// the per-row functions here return.
package vec

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics if the lengths differ.
func Dot(a, b []float32) float32 {
	checkLen(a, b)
	var s float32
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// DotAxpy fuses an accumulation with an inner product in one pass:
// dst += alpha*x, returning Dot(x, y). It exists for gradient kernels that
// would otherwise traverse x twice — once to apply it, once to reduce it
// against y (RESCAL's row-wise ∂/∂t plus M·t product, for example).
func DotAxpy(dst []float32, alpha float32, x, y []float32) float32 {
	checkLen(dst, x)
	checkLen(x, y)
	var s float32
	for i, v := range x {
		dst[i] += alpha * v
		s += v * y[i]
	}
	return s
}

// Dot2 returns Dot(a, x) and Dot(a, y) in a single fused pass over a —
// the two-projection reduction models with relation hyperplanes need
// (TransH computes wᵀh and wᵀt for every score and gradient).
func Dot2(a, x, y []float32) (ax, ay float32) {
	checkLen(a, x)
	checkLen(a, y)
	for i, v := range a {
		ax += v * x[i]
		ay += v * y[i]
	}
	return ax, ay
}

// Add stores a+b into dst. dst may alias a or b.
func Add(dst, a, b []float32) {
	checkLen(a, b)
	checkLen(dst, a)
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Sub stores a-b into dst. dst may alias a or b.
func Sub(dst, a, b []float32) {
	checkLen(a, b)
	checkLen(dst, a)
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Axpy computes dst += alpha*x, the classic BLAS saxpy.
func Axpy(dst []float32, alpha float32, x []float32) {
	checkLen(dst, x)
	for i, v := range x {
		dst[i] += alpha * v
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(x []float32, alpha float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Mul stores the element-wise (Hadamard) product a*b into dst.
func Mul(dst, a, b []float32) {
	checkLen(a, b)
	checkLen(dst, a)
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// L2 returns the l2 (Euclidean) norm of x.
func L2(x []float32) float32 {
	return float32(math.Sqrt(float64(SquaredL2(x))))
}

// SquaredL2 returns the squared l2 norm of x.
func SquaredL2(x []float32) float32 {
	var s float32
	for _, v := range x {
		s += v * v
	}
	return s
}

// L1Dist returns the l1 distance between a and b.
func L1Dist(a, b []float32) float32 {
	checkLen(a, b)
	var s float32
	for i, x := range a {
		d := x - b[i]
		if d < 0 {
			s -= d
		} else {
			s += d
		}
	}
	return s
}

// SquaredL2Dist returns the squared l2 distance between a and b.
func SquaredL2Dist(a, b []float32) float32 {
	checkLen(a, b)
	var s float32
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return s
}

// L2Dist returns the l2 distance between a and b.
func L2Dist(a, b []float32) float32 {
	return float32(math.Sqrt(float64(SquaredL2Dist(a, b))))
}

// Copy copies src into dst. It panics if the lengths differ; unlike the
// built-in copy it refuses to silently truncate.
func Copy(dst, src []float32) {
	checkLen(dst, src)
	copy(dst, src)
}

// Zero sets every element of x to zero.
func Zero(x []float32) {
	for i := range x {
		x[i] = 0
	}
}

// Fill sets every element of x to v.
func Fill(x []float32, v float32) {
	for i := range x {
		x[i] = v
	}
}

// Normalize scales x to unit l2 norm. A zero vector is left untouched.
func Normalize(x []float32) {
	n := L2(x)
	if n == 0 {
		return
	}
	Scale(x, 1/n)
}

// IsFinite reports whether every element of x is a finite number.
func IsFinite(x []float32) bool {
	for _, v := range x {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

func checkLen(a, b []float32) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: length mismatch %d != %d", len(a), len(b)))
	}
}
