package opt

import (
	"fmt"
	"math/rand"
	"testing"

	"hetkg/internal/vec"
	"hetkg/internal/vec/kerneltest"
)

// applyEntries registers the step kernels' entry points, vec.Add and
// AdaGrad.Apply, each held to itself with the kernels off.
var applyEntries = []kerneltest.Kernel{
	{Name: "vec.Add", Widths: func(d, _ int) []int { return []int{d, d, d} },
		Run: func(_ kerneltest.Case, ops [][]float32) []float32 {
			vec.Add(ops[2], ops[0], ops[1])
			return nil
		}},
	// Two steps on one key: the first from a zero accumulator, the second
	// from the one the first stored.
	{Name: "AdaGrad.Apply", Widths: func(d, _ int) []int { return []int{d, d, d} },
		Run: func(c kerneltest.Case, ops [][]float32) []float32 {
			o, row := NewAdaGrad(c.Scalars[0], c.Scalars[1]), ops[2]
			o.Apply(1, row, ops[0])
			first := append([]float32(nil), row...)
			o.Apply(1, row, ops[1])
			return first
		}},
}

// TestApplyKernelsMatchLoops holds vec.Add and AdaGrad.Apply with the
// kernels on to their loops on every bit, with rows apart, aliased and
// overlapping (kerneltest.Run).
func TestApplyKernelsMatchLoops(t *testing.T) { kerneltest.Run(t, applyEntries) }

// FuzzApplyKernels holds the step kernels to their loops on decoded cases
// (kerneltest.Decode): rows apart, overlapping, aliased, overlapping.
func FuzzApplyKernels(f *testing.F) {
	kerneltest.Fuzz(f, applyEntries,
		[]byte{32, 0, 0, 0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0xff, 0x01, 0x00, 0x00, 0x80},
		[]byte{48, 0, 3, 0x3f, 0x80, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x00},
		[]byte{19, 0, 2, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x0f, 0x1e, 0x2d},
		[]byte{80, 0, 3})
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
