package model

import (
	"math"
	"math/rand"
	"testing"

	"hetkg/internal/vec/kerneltest"
)

// scoreBranchy and gradBranchy are TransE.Score and TransE.Grad as they were
// while the l1 loops branched on the residual's sign, kept verbatim: the
// reference the branch-free loops must reproduce bit for bit.
func scoreBranchy(m TransE, h, r, t []float32) float32 {
	var s float32
	if m.Norm == 2 {
		for i := range h {
			d := h[i] + r[i] - t[i]
			s += d * d
		}
		return -s
	}
	for i := range h {
		d := h[i] + r[i] - t[i]
		if d < 0 {
			s -= d
		} else {
			s += d
		}
	}
	return -s
}

func gradBranchy(m TransE, h, r, t []float32, dScore float32, gh, gr, gt []float32) {
	for i := range h {
		d := h[i] + r[i] - t[i]
		var g float32
		if m.Norm == 2 {
			g = 2 * d
		} else {
			switch {
			case d > 0:
				g = 1
			case d < 0:
				g = -1
			}
		}
		v := dScore * g
		if gh != nil {
			gh[i] -= v
		}
		if gr != nil {
			gr[i] -= v
		}
		if gt != nil {
			gt[i] += v
		}
	}
}

// kernelSpecials is the one special-value set every kernel test draws from.
var kernelSpecials = kerneltest.Specials

func normalRow(rng *rand.Rand, d int) []float32 {
	row := make([]float32, d)
	for i := range row {
		row[i] = float32(rng.NormFloat64())
	}
	return row
}

// kernelRows draws normal rows h, r, t. With probability dirty, each element
// of each row takes a special instead (so two NaNs meet in one residual),
// and each residual is made an exact ±0: t[i] = h[i]+r[i] gives +0, h[i] =
// r[i] = -0 with t[i] = +0 gives -0.
func kernelRows(rng *rand.Rand, d int, dirty float64) (h, r, t []float32) {
	h, r, t = normalRow(rng, d), normalRow(rng, d), normalRow(rng, d)
	for i := 0; i < d; i++ {
		for _, row := range [][]float32{h, r, t} {
			if rng.Float64() < dirty {
				row[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
			}
		}
		if rng.Float64() < dirty {
			if rng.Intn(2) == 0 {
				t[i] = h[i] + r[i]
			} else {
				h[i], r[i], t[i] = float32(math.Copysign(0, -1)), float32(math.Copysign(0, -1)), 0
			}
		}
	}
	return h, r, t
}

// gradLayout runs grad on copies of the rows and of the nonzero starting
// gradients g0, laid out as computeShard lays them out: distinct rows; a
// self-loop, where t is h and gt is gh (a corrupted tail that drew the head,
// or a corrupted head that drew the tail, alias the same way); or a nil
// buffer, which Grad skips.
func gradLayout(grad func(h, r, t []float32, dScore float32, gh, gr, gt []float32),
	layout string, h, r, t []float32, dScore float32, g0 [3][]float32) [3][]float32 {
	h, r, t = clone32(h), clone32(r), clone32(t)
	g := [3][]float32{clone32(g0[0]), clone32(g0[1]), clone32(g0[2])}
	switch layout {
	case "self-loop":
		t, g[2] = h, g[0]
	case "nil":
		g[1] = nil
	}
	grad(h, r, t, dScore, g[0], g[1], g[2])
	return g
}

func clone32(x []float32) []float32 { return append([]float32(nil), x...) }

// TestTransEL1MatchesBranchyReference holds TransE's branch-free Score and
// Grad to the branchy loops they replaced, on every bit: both norms, widths
// on and off any unrolling, rows mixed with ±0 residuals, ±0, ±Inf,
// subnormals and NaNs of both signs with payloads, dScore special too, and
// gradient buffers that start nonzero in every layout computeShard produces.
func TestTransEL1MatchesBranchyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	dScores := append([]float32{1, -0.37, 3e38, -1e-30}, kernelSpecials...)
	for _, m := range []TransE{{Norm: 1}, {Norm: 2}} {
		for _, d := range []int{1, 3, 4, 7, 16, 64, 128, 130} {
			for trial := 0; trial < 300; trial++ {
				dirty := []float64{0, 0.05, 0.5}[trial%3]
				h, r, tl := kernelRows(rng, d, dirty)
				want, got := scoreBranchy(m, h, r, tl), m.Score(h, r, tl)
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s d=%d trial %d: Score %v (%#08x), branchy %v (%#08x)\nh=%v\nr=%v\nt=%v",
						m.Name(), d, trial, got, math.Float32bits(got), want, math.Float32bits(want), h, r, tl)
				}
				dScore := dScores[rng.Intn(len(dScores))]
				g0 := [3][]float32{normalRow(rng, d), normalRow(rng, d), normalRow(rng, d)}
				for _, layout := range []string{"distinct", "self-loop", "nil"} {
					wantG := gradLayout(func(h, r, t []float32, dScore float32, gh, gr, gt []float32) {
						gradBranchy(m, h, r, t, dScore, gh, gr, gt)
					}, layout, h, r, tl, dScore, g0)
					gotG := gradLayout(m.Grad, layout, h, r, tl, dScore, g0)
					for k := range gotG {
						for i := range gotG[k] {
							if a, b := math.Float32bits(gotG[k][i]), math.Float32bits(wantG[k][i]); a != b {
								t.Fatalf("%s d=%d trial %d %s dScore=%v: grad %d[%d] = %#08x, branchy %#08x",
									m.Name(), d, trial, layout, dScore, k, i, a, b)
							}
						}
					}
				}
			}
		}
	}
}
