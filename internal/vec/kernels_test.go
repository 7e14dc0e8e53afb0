package vec_test

import (
	"testing"

	"hetkg/internal/vec"
	"hetkg/internal/vec/kerneltest"
)

// rowsEntries registers the sweep kernels' entry points against the
// per-row functions they replace. vec.Add is registered with AdaGrad.Apply,
// in opt's tests.
var rowsEntries = []kerneltest.Kernel{
	rowsKernel("DotRows", vec.DotRows, vec.Dot),
	rowsKernel("L1DistRows", vec.L1DistRows, vec.L1Dist),
	rowsKernel("SquaredL2DistRows", vec.SquaredL2DistRows, vec.SquaredL2Dist),
}

// rowsKernel takes the query, then N rows.
func rowsKernel(name string, rows func(out, q, rows []float32), one func(a, b []float32) float32) kerneltest.Kernel {
	return kerneltest.Kernel{Name: name, Widths: func(d, n int) []int { return []int{d, n * d} },
		Run: func(c kerneltest.Case, ops [][]float32) []float32 {
			out := kerneltest.Unwritten(c.N)
			rows(out, ops[0], ops[1])
			return out
		},
		Ref: func(c kerneltest.Case, ops [][]float32) []float32 {
			out := make([]float32, c.N)
			for k := range out {
				out[k] = one(ops[0], ops[1][k*c.D:(k+1)*c.D])
			}
			return out
		}}
}

// TestRowsKernelsMatchPerRowBitForBit holds the *Rows functions, kernels
// off and on, to the per-row functions (kerneltest.RunCases).
func TestRowsKernelsMatchPerRowBitForBit(t *testing.T) { kerneltest.RunCases(t, rowsEntries) }

// TestRowsKernelsSpecialsAtEveryBlockPosition puts each special value at
// every float of a block and more, in the query and in the rows
// (kerneltest.RunSpecials).
func TestRowsKernelsSpecialsAtEveryBlockPosition(t *testing.T) {
	kerneltest.RunSpecials(t, rowsEntries)
}

// FuzzRowsKernels holds the *Rows functions to the per-row functions on
// decoded cases (kerneltest.Decode): width, count and layout bytes, then
// raw bits.
func FuzzRowsKernels(f *testing.F) {
	kerneltest.Fuzz(f, rowsEntries,
		[]byte{16, 9, 0, 0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0xff, 0x01, 0x00, 0x00, 0x80},
		[]byte{1, 17, 0, 0x3f, 0x80, 0x00, 0x00},
		[]byte{48, 16, 0})
}
