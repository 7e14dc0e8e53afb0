// Package vec provides the small dense linear-algebra kernel used by every
// embedding component in the system: float32 vector operations, embedding
// matrices, and initialization schemes.
//
// The per-row operations in this file are straight loops over []float32 with
// the bounds checks hoisted by an explicit length prefix: embeddings here are
// short (tens to hundreds of elements) and a training step touches scattered
// rows, so there is little more to win per call. Add is the exception: the
// worker's gradient merge sums every row of a batch through it, so on amd64
// with AVX2 it adds eight elements per instruction (add_amd64.s). A sweep over a whole table
// is different — the same query against every row — and has its own kernels
// in rows.go, which score eight rows per AVX2 pass on amd64 (rows_amd64.s)
// or four per pass in Go, and return, bit for bit, what the per-row
// functions here return.
package vec

import (
	"fmt"
	"math"
	"unsafe"
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
//
// On AVX2 machines (Kernels) its whole eight-element blocks go to
// addBlocks in add_amd64.s, one element per vector lane, so every lane adds
// what the loop adds. The loop updates one element at a time, so the kernel
// runs only where that order cannot show: dst is a or is apart from it, and
// likewise b. A block whose sum holds a NaN is handed back unwritten (which
// NaN survives follows operand order, which the compiler picks), and the
// loop does the rest from there.
func Add(dst, a, b []float32) {
	checkLen(a, b)
	checkLen(dst, a)
	i := 0
	if Kernels() && len(dst) >= 8 && sameOrApart(dst, a) && sameOrApart(dst, b) {
		i = addBlocks(dst, a, b)
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] + b[i]
	}
}

// sameOrApart reports whether a and b, of equal length, are the same floats
// or share none.
func sameOrApart(a, b []float32) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b) || !Overlap(len(a), a, b)
}

// Overlap reports whether the first n floats of a and of b share memory:
// the test every kernel that writes a whole block at once runs before it
// stands in for a loop that writes one element at a time.
func Overlap(n int, a, b []float32) bool {
	pa := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	pb := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	size := 4 * uintptr(n)
	return pa < pb+size && pb < pa+size
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

// Zero sets every element of x to zero.
func Zero(x []float32) {
	for i := range x {
		x[i] = 0
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

// IsFinite reports whether every element of x is a finite number: one
// whose exponent bits are not all ones (those are the infinities and NaNs).
func IsFinite(x []float32) bool {
	const exp = 0x7f800000
	for _, v := range x {
		if math.Float32bits(v)&exp == exp {
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
