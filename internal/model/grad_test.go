package model

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hetkg/internal/vec"
)

type gradFunc = func(h, r, t []float32, dScore float32, gh, gr, gt []float32)

// kernelPaths runs f with the gradient kernels off ("go"), then, where the
// CPU runs them, on ("avx2").
func kernelPaths(f func(path string)) {
	has := gradKernels
	defer func() { gradKernels = has }()
	gradKernels = false
	f("go")
	if has {
		gradKernels = true
		f("avx2")
	}
}

// goLoop is grad with the gradient kernels off: the Go loops alone, the
// reference the kernels must reproduce bit for bit.
func goLoop(grad gradFunc) gradFunc {
	return func(h, r, t []float32, dScore float32, gh, gr, gt []float32) {
		has := gradKernels
		defer func() { gradKernels = has }()
		gradKernels = false
		grad(h, r, t, dScore, gh, gr, gt)
	}
}

// sameBits fails unless got and want hold the same float32 bits.
func sameBits(t testing.TB, label string, got, want [3][]float32) {
	t.Helper()
	for k := range got {
		for i := range got[k] {
			if a, b := math.Float32bits(got[k][i]), math.Float32bits(want[k][i]); a != b {
				t.Fatalf("%s: grad %d[%d] = %#08x, Go loop %#08x", label, k, i, a, b)
			}
		}
	}
}

// TestGradKernelsFollowVecCPUCheck keeps a detection bug from passing as
// "no gain": the gradient kernels are on exactly where vec's one CPU check
// says AVX2 runs, and vec's TestBlockKernelsOnWhereCPUHasAVX2 holds that
// check to /proc/cpuinfo.
func TestGradKernelsFollowVecCPUCheck(t *testing.T) {
	if gradKernels != vec.HasAVX2() {
		t.Fatalf("gradient kernels on = %v, vec.HasAVX2() = %v", gradKernels, vec.HasAVX2())
	}
}

// TestTransEL1GradPathsMatchBranchyReference runs every case of
// TestTransEL1MatchesBranchyReference with the gradient kernel off and on.
func TestTransEL1GradPathsMatchBranchyReference(t *testing.T) {
	kernelPaths(func(path string) { t.Run(path, TestTransEL1MatchesBranchyReference) })
}

// TestComplExGradMatchesGoLoop holds ComplEx.Grad with the kernel on to the
// Go loop on every bit: widths below, on and off the eight-coordinate
// block, clean rows and rows mixed with ±0, ±Inf, subnormals and NaNs with
// payloads (sparsely enough that some blocks are handed back mid-row),
// dScore special too, and starting gradients in every layout computeShard
// produces.
func TestComplExGradMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	dScores := append([]float32{1, -0.37, 3e38, -1e-30}, kernelSpecials...)
	m := ComplEx{}
	for _, d := range []int{1, 3, 7, 8, 12, 16, 64, 128, 130} {
		n := m.EntityDim(d)
		for trial := 0; trial < 300; trial++ {
			dirty := []float64{0, 0.002, 0.05, 0.5}[trial%4]
			h, r, tl := kernelRows(rng, n, dirty)
			dScore := dScores[rng.Intn(len(dScores))]
			g0 := [3][]float32{normalRow(rng, n), normalRow(rng, n), normalRow(rng, n)}
			for _, layout := range []string{"distinct", "self-loop", "nil"} {
				want := gradLayout(goLoop(m.Grad), layout, h, r, tl, dScore, g0)
				kernelPaths(func(path string) {
					got := gradLayout(m.Grad, layout, h, r, tl, dScore, g0)
					sameBits(t, fmt.Sprintf("%s d=%d trial %d %s dScore=%v", path, d, trial, layout, dScore), got, want)
				})
			}
		}
	}
}

// TestGradBlocksContract pins where the kernels run and what they hand
// back: every whole block of clean distinct rows; the blocks before the
// first one with a NaN result, which stays unwritten; nothing at all when a
// gradient row is nil or short or shares memory with another row.
func TestGradBlocksContract(t *testing.T) {
	if !gradKernels {
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

// FuzzGradKernels decodes a width (every other input a multiple of 8), the
// model, the layout and the raw bits of dScore, h, r, t and the three
// starting gradient rows, and holds ComplEx.Grad and TransE-ℓ1 Grad with
// the kernels on to the Go loops bit for bit.
func FuzzGradKernels(f *testing.F) {
	f.Add([]byte{32, 0, 0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0xff, 0x01, 0x00, 0x00, 0x80})
	f.Add([]byte{33, 1, 0x3f, 0x80, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x00})
	f.Add([]byte{16, 2, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x0f, 0x1e, 0x2d})
	f.Add([]byte{48, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		d := int(data[0]>>1) % 41
		if data[0]&1 == 0 {
			d &^= 7
		}
		m := []Model{ComplEx{}, TransE{Norm: 1}}[data[1]&1]
		layout := []string{"distinct", "self-loop", "nil"}[int(data[1]>>1)%3]
		raw := data[2:]
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
		n := m.EntityDim(d)
		rows := make([][]float32, 6)
		for k := range rows {
			rows[k] = make([]float32, n)
			for i := range rows[k] {
				rows[k][i] = word(1 + k*n + i)
			}
		}
		g0 := [3][]float32{rows[3], rows[4], rows[5]}
		want := gradLayout(goLoop(m.Grad), layout, rows[0], rows[1], rows[2], word(0), g0)
		got := gradLayout(m.Grad, layout, rows[0], rows[1], rows[2], word(0), g0)
		sameBits(t, fmt.Sprintf("%s d=%d %s", m.Name(), d, layout), got, want)
	})
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
