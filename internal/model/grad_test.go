package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hetkg/internal/vec"
	"hetkg/internal/vec/kerneltest"
)

// gradEntries registers the gradient kernels' entry points, ComplEx and
// TransE-ℓ1 Grad, each held to itself with the kernels off.
var gradEntries = []kerneltest.Kernel{gradKernel(ComplEx{}), gradKernel(TransE{Norm: 1})}

// gradKernel takes h, r, t, then the gradient rows gh, gr, gt it writes.
func gradKernel(m Model) kerneltest.Kernel {
	return kerneltest.Kernel{Name: m.Name() + ".Grad",
		Widths: func(d, _ int) []int { w := m.EntityDim(d); return []int{w, w, w, w, w, w} },
		Run: func(c kerneltest.Case, ops [][]float32) []float32 {
			m.Grad(ops[0], ops[1], ops[2], c.Scalars[0], ops[3], ops[4], ops[5])
			return nil
		}}
}

// TestComplExGradMatchesGoLoop holds ComplEx.Grad with the kernel on to
// the Go loop on every bit (kerneltest.Run).
func TestComplExGradMatchesGoLoop(t *testing.T) { kerneltest.Run(t, gradEntries[:1]) }

// TestTransEL1GradPathsMatchBranchyReference holds both paths of TransE-ℓ1
// Grad to the branchy reference: with the kernel off ("go") every case of
// TestTransEL1MatchesBranchyReference, and with it on ("avx2") the Go loop
// on every bit (kerneltest.Run).
func TestTransEL1GradPathsMatchBranchyReference(t *testing.T) {
	defer vec.SetKernels(vec.Kernels())
	vec.SetKernels(false)
	t.Run("go", TestTransEL1MatchesBranchyReference)
	t.Run("avx2", func(t *testing.T) { kerneltest.Run(t, gradEntries[1:]) })
}

// FuzzGradKernels holds the gradient kernels to the Go loop on decoded
// cases (kerneltest.Decode): distinct rows twice, the self-loop as
// aliased, the nil-row seed as apart.
func FuzzGradKernels(f *testing.F) {
	kerneltest.Fuzz(f, gradEntries,
		[]byte{32, 0, 0, 0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0xff, 0x01, 0x00, 0x00, 0x80},
		[]byte{33, 0, 0, 0x3f, 0x80, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x00},
		[]byte{16, 0, 2, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x0f, 0x1e, 0x2d},
		[]byte{48, 0, 0})
}

// TestGradBlocksContract pins where the kernels run and what they hand
// back: every whole block of clean distinct rows; the blocks before the
// first one with a NaN result, which stays unwritten; nothing at all when a
// gradient row is nil or short or shares memory with another row.
func TestGradBlocksContract(t *testing.T) {
	if !vec.Kernels() {
		t.Skip("this CPU runs no gradient kernel")
	}
	const coords = 20 // two whole blocks and four coordinates
	for _, c := range []struct {
		m      Model
		kernel blockKernel
	}{{ComplEx{}, complExGradAVX2}, {TransE{Norm: 1}, transEL1GradAVX2}} {
		n := c.m.EntityDim(coords)
		rng := rand.New(rand.NewSource(7))
		h, r, tl := normalRow(rng, n), normalRow(rng, n), normalRow(rng, n)
		rows := func() [3][]float32 {
			return [3][]float32{normalRow(rng, n), normalRow(rng, n), normalRow(rng, n)}
		}
		run := func(gh, gr, gt []float32) int { return gradBlocks(c.kernel, n, h, r, tl, 0.5, gh, gr, gt) }

		g := rows()
		if got := run(g[0], g[1], g[2]); got != 16 {
			t.Errorf("%s clean rows: %d coordinates, want 16", c.m.Name(), got)
		}
		g = rows()
		g[0][9] = float32(math.NaN())
		start := clone32(g[1])
		if got := run(g[0], g[1], g[2]); got != 8 {
			t.Errorf("%s NaN at coordinate 9: %d coordinates, want 8", c.m.Name(), got)
		}
		for i := range start { // ComplEx float i is coordinate i%coords of a half
			if i%coords >= 8 && math.Float32bits(g[1][i]) != math.Float32bits(start[i]) {
				t.Fatalf("%s: gr[%d] written past the handed-back block", c.m.Name(), i)
			}
		}
		wide := normalRow(rng, n+1)
		for name, gs := range map[string][3][]float32{
			"self-loop":       {g[0], g[1], g[0]},
			"gt one float on": {wide[:n], g[1], wide[1:]},
			"gh is h":         {h, g[1], g[2]},
			"gr nil":          {g[0], nil, g[2]},
			"gt short":        {g[0], g[1], g[2][:n-1]},
		} {
			if got := run(gs[0], gs[1], gs[2]); got != 0 {
				t.Errorf("%s %s: kernel ran %d coordinates, want none", c.m.Name(), name, got)
			}
		}
	}
}

// BenchmarkScore and BenchmarkGrad time the training kernels on random
// normal rows, one call per op: TransE with both norms and ComplEx at base
// widths 16, 64 and 128 (ComplEx rows are twice as wide). The calls cycle
// through 2^16 floats of rows, so the residual signs repeat only every 2^16
// elements: too long a pattern for a branch predictor to learn, as a
// training run's is.
func BenchmarkScore(b *testing.B) {
	benchModels(b, func(m Model, h, r, t []float32, _ [3][]float32) { benchSink += m.Score(h, r, t) })
}

func BenchmarkGrad(b *testing.B) {
	benchModels(b, func(m Model, h, r, t []float32, g [3][]float32) { m.Grad(h, r, t, 0.01, g[0], g[1], g[2]) })
}

func benchModels(b *testing.B, op func(m Model, h, r, t []float32, g [3][]float32)) {
	for _, m := range []Model{TransE{Norm: 1}, TransE{Norm: 2}, ComplEx{}} {
		for _, d := range []int{16, 64, 128} {
			b.Run(fmt.Sprintf("%s/d=%d", m.Name(), d), func(b *testing.B) {
				w := m.EntityDim(d) // = RelationDim(d) for these models
				rng := rand.New(rand.NewSource(int64(d)))
				n := 1 << 16 / w
				rows := make([][]float32, n)
				for i := range rows {
					rows[i] = normalRow(rng, w)
				}
				g := [3][]float32{make([]float32, w), make([]float32, w), make([]float32, w)}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op(m, rows[i%n], rows[(i+1)%n], rows[(i+7)%n], g)
				}
			})
		}
	}
}
