package opt

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hetkg/internal/vec"
)

// TestApplyKernelsFollowVecCPUCheck keeps a detection bug from passing as
// "no gain": the AdaGrad kernel is on exactly where vec's one CPU check says
// AVX2 runs, and vec's TestBlockKernelsOnWhereCPUHasAVX2 holds that check
// (which also gates vec.Add's kernel) to /proc/cpuinfo.
func TestApplyKernelsFollowVecCPUCheck(t *testing.T) {
	if applyKernels != vec.HasAVX2() {
		t.Fatalf("AdaGrad kernel on = %v, vec.HasAVX2() = %v", applyKernels, vec.HasAVX2())
	}
}

// applySpecials are the values a diverging run pushes: both zeros, both
// infinities, subnormals of both signs and NaNs of both signs, with
// payloads, quiet and signaling.
var applySpecials = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x00000001), math.Float32frombits(0x807fffff),
	float32(math.NaN()), math.Float32frombits(0xFFC00000),
	math.Float32frombits(0x7fc12345), math.Float32frombits(0xffd00bad),
	math.Float32frombits(0x7f800001), math.Float32frombits(0xff812345),
}

// adaGradStep runs one Apply with the kernel on or off on copies: row and
// grad lie in buf at rowAt and gradAt (they may overlap), and the key's
// accumulator starts as acc0. It returns buf and the accumulator after.
func adaGradStep(kernel bool, lr, eps float32, buf []float32, n, rowAt, gradAt int, acc0 []float32) (bufAfter, accAfter []float32) {
	has := applyKernels
	defer func() { applyKernels = has }()
	applyKernels = kernel
	buf = append([]float32(nil), buf...)
	o := NewAdaGrad(lr, eps)
	acc := append([]float32(nil), acc0...)
	o.accum[1] = acc
	o.Apply(1, buf[rowAt:rowAt+n], buf[gradAt:gradAt+n])
	return buf, acc
}

// addLoop is vec.Add's loop, the reference its kernel must reproduce.
func addLoop(dst, a, b []float32) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// addStep runs vec.Add or addLoop on a copy of buf, dst, a and b n floats
// at the given offsets, and returns the buffer after.
func addStep(add func(dst, a, b []float32), buf []float32, n, dstAt, aAt, bAt int) []float32 {
	buf = append([]float32(nil), buf...)
	add(buf[dstAt:dstAt+n], buf[aAt:aAt+n], buf[bAt:bAt+n])
	return buf
}

func sameBits(t testing.TB, label string, got, want []float32) {
	t.Helper()
	for i := range want {
		if a, b := math.Float32bits(got[i]), math.Float32bits(want[i]); a != b {
			t.Fatalf("%s: [%d] = %#08x, loop %#08x", label, i, a, b)
		}
	}
}

// TestApplyKernelsMatchLoops holds AdaGrad.Apply with its kernel on, and
// vec.Add, to their loops bit for bit: widths on and off the eight-element
// block, normal values mixed with specials (sparsely enough that some
// blocks are handed back mid-row), accumulators that start at zero or
// grown, and rows laid out apart, aliased and overlapping by one float.
func TestApplyKernelsMatchLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	fill := func(x []float32, dirty float64) {
		for i := range x {
			x[i] = float32(rng.NormFloat64())
			if rng.Float64() < dirty {
				x[i] = applySpecials[rng.Intn(len(applySpecials))]
			}
		}
	}
	for _, n := range []int{1, 7, 8, 9, 16, 31, 64, 128, 256} {
		for trial := 0; trial < 200; trial++ {
			dirty := []float64{0, 0.002, 0.05, 0.5}[trial%4]
			buf := make([]float32, 3*n+2)
			fill(buf, dirty)
			acc := make([]float32, n)
			if trial%2 == 1 {
				for i := range acc {
					acc[i] = float32(rng.ExpFloat64())
				}
			}
			lr, eps := float32(0.1), float32(1e-10)
			for _, l := range [][2]int{{0, n}, {0, 0}, {1, 0}, {0, 1}, {2 * n, 0}} {
				label := fmt.Sprintf("AdaGrad n=%d trial %d row@%d grad@%d", n, trial, l[0], l[1])
				wantBuf, wantAcc := adaGradStep(false, lr, eps, buf, n, l[0], l[1], acc)
				gotBuf, gotAcc := adaGradStep(true, lr, eps, buf, n, l[0], l[1], acc)
				sameBits(t, label+" acc", gotAcc, wantAcc)
				sameBits(t, label+" buf", gotBuf, wantBuf)
			}
			for _, l := range [][3]int{{0, n, 2 * n}, {0, 0, n}, {n, 0, n}, {0, 0, 0}, {1, 0, 2 * n}, {0, 1, 2 * n}, {0, n, 1}} {
				label := fmt.Sprintf("Add n=%d trial %d dst@%d a@%d b@%d", n, trial, l[0], l[1], l[2])
				sameBits(t, label, addStep(vec.Add, buf, n, l[0], l[1], l[2]), addStep(addLoop, buf, n, l[0], l[1], l[2]))
			}
		}
	}
}

// FuzzApplyKernels decodes a width, where in one buffer the rows lie (so
// they may be apart, aliased or overlapping), lr, eps and the raw bits of
// the buffer and of a starting accumulator, and holds AdaGrad.Apply with
// its kernel on, and vec.Add, to their loops bit for bit.
func FuzzApplyKernels(f *testing.F) {
	f.Add([]byte{16, 0, 16, 32, 0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0xff, 0x01, 0x00, 0x00, 0x80})
	f.Add([]byte{24, 1, 0, 1, 0x3f, 0x80, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x00})
	f.Add([]byte{9, 0, 0, 0, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x0f, 0x1e, 0x2d})
	f.Add([]byte{40, 3, 2, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := int(data[0]) % 41
		span := 3*n + 8
		at := func(b byte) int { return int(b) % span }
		dstAt, aAt, bAt := at(data[1]), at(data[2]), at(data[3])
		raw := data[4:]
		word := func(i int) float32 {
			if len(raw) == 0 {
				return 0
			}
			var b [4]byte
			for j := range b {
				b[j] = raw[(4*i+j)%len(raw)]
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
		}
		buf := make([]float32, span+n)
		for i := range buf {
			buf[i] = word(2 + i)
		}
		acc := make([]float32, n)
		for i := range acc {
			acc[i] = word(2 + len(buf) + i)
		}
		lr, eps := word(0), word(1)
		wantBuf, wantAcc := adaGradStep(false, lr, eps, buf, n, dstAt, aAt, acc)
		gotBuf, gotAcc := adaGradStep(true, lr, eps, buf, n, dstAt, aAt, acc)
		label := fmt.Sprintf("AdaGrad n=%d row@%d grad@%d lr=%v eps=%v", n, dstAt, aAt, lr, eps)
		sameBits(t, label+" acc", gotAcc, wantAcc)
		sameBits(t, label+" buf", gotBuf, wantBuf)
		label = fmt.Sprintf("Add n=%d dst@%d a@%d b@%d", n, dstAt, aAt, bAt)
		sameBits(t, label, addStep(vec.Add, buf, n, dstAt, aAt, bAt), addStep(addLoop, buf, n, dstAt, aAt, bAt))
	})
}

// BenchmarkAdaGradApply times one Apply on a row whose accumulator already
// exists, the shard's steady state, at widths 16 (tcp-chatty), 128 and 256
// (a ComplEx d = 128 row).
func BenchmarkAdaGradApply(b *testing.B) {
	for _, n := range []int{16, 128, 256} {
		b.Run(fmt.Sprintf("width=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			row, grad := make([]float32, n), make([]float32, n)
			for i := range row {
				row[i], grad[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())*1e-3
			}
			o := NewAdaGrad(0.1, 1e-10)
			o.Apply(1, row, grad)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Apply(1, row, grad)
			}
		})
	}
}
