package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specials are the values a trained table never holds and a hostile or
// diverged one does: both zeros, both infinities, and NaNs of either sign
// (Inf−Inf yields the negative one on amd64, float32(math.NaN()) is the
// positive one — a kernel that mixes them up differs from Score in the
// sign bit only).
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.Float32frombits(0xFFC00000),
}

// fillRow draws row from [-1, 1) and, with probability dirty, overwrites
// one or two of its elements with specials.
func fillRow(rng *rand.Rand, row []float32, dirty float64) {
	for i := range row {
		row[i] = rng.Float32()*2 - 1
	}
	if rng.Float64() < dirty {
		for n := 1 + rng.Intn(2); n > 0; n-- {
			row[rng.Intn(len(row))] = specials[rng.Intn(len(specials))]
		}
	}
}

// TestSweepMatchesScoreBitForBit is the contract every full-table consumer
// rests on: for every model, both directions, widths and row counts on and
// off the four-row tile, Sweep.Score returns the bits of Model.Score —
// including for rows holding ±0, ±Inf and NaN, and for a query that does.
func TestSweepMatchesScoreBitForBit(t *testing.T) {
	rowCounts := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1000}
	var sw Sweep // one sweep reused across every case, as a pooled job reuses it
	for _, name := range Names() {
		m, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []int{1, 3, 4, 7, 64, 130} {
			if testing.Short() && d > 64 {
				continue
			}
			w := m.EntityDim(d)
			rng := rand.New(rand.NewSource(int64(d)))
			for _, n := range rowCounts {
				for _, dirtyQuery := range []float64{0, 1} {
					anchor := make([]float32, w)
					rel := make([]float32, m.RelationDim(d))
					fillRow(rng, anchor, dirtyQuery)
					fillRow(rng, rel, dirtyQuery)
					rows := make([]float32, n*w)
					for k := 0; k < n; k++ {
						fillRow(rng, rows[k*w:(k+1)*w], 0.3)
					}
					out := make([]float32, n)
					for _, tails := range []bool{true, false} {
						sw.Reset(m, anchor, rel, tails)
						sw.Score(out, rows)
						for k := range out {
							row := rows[k*w : (k+1)*w]
							want := m.Score(row, rel, anchor)
							if tails {
								want = m.Score(anchor, rel, row)
							}
							if math.Float32bits(out[k]) != math.Float32bits(want) {
								t.Fatalf("%s d=%d rows=%d tails=%v dirtyQuery=%v row %d: sweep %v (%#08x), Score %v (%#08x)",
									name, d, n, tails, dirtyQuery == 1, k,
									out[k], math.Float32bits(out[k]), want, math.Float32bits(want))
							}
						}
					}
				}
			}
		}
	}
}

// TestSweepRejectsRaggedRun pins the one misuse Score can detect: a run
// that is not a whole number of rows of the query's width.
func TestSweepRejectsRaggedRun(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Score over 7 floats as 2 rows of width 4 did not panic")
		}
	}()
	var sw Sweep
	sw.Reset(TransE{Norm: 1}, make([]float32, 4), make([]float32, 4), true)
	sw.Score(make([]float32, 2), make([]float32, 7))
}

// sweepBench is the 20 000×64 table of the serving benchmark (base
// dimension 64, so ComplEx and RotatE rows are 128 wide).
const sweepBenchRows, sweepBenchDim = 20000, 64

func sweepBenchTable(m Model) (ents, anchor, rel []float32, w int) {
	rng := rand.New(rand.NewSource(1))
	w = m.EntityDim(sweepBenchDim)
	ents = make([]float32, sweepBenchRows*w)
	for i := range ents {
		ents[i] = rng.Float32()*2 - 1
	}
	rel = make([]float32, m.RelationDim(sweepBenchDim))
	for i := range rel {
		rel[i] = rng.Float32()*2 - 1
	}
	return ents, ents[:w], rel, w
}

func benchDirections(b *testing.B, run func(b *testing.B, m Model, tails bool)) {
	for _, name := range Names() {
		m, err := New(name)
		if err != nil {
			b.Fatal(err)
		}
		if name == "rescal" || name == "hole" {
			continue // O(d²) per row: seconds per sweep, and Sweep is their Score loop anyway
		}
		for _, tails := range []bool{true, false} {
			dir := "heads"
			if tails {
				dir = "tails"
			}
			b.Run(fmt.Sprintf("%s/%s", name, dir), func(b *testing.B) { run(b, m, tails) })
		}
	}
}

var benchSink float32

// BenchmarkSweep measures one full-table sweep through Sweep, in the 256-row
// runs a /v1/predict request uses.
func BenchmarkSweep(b *testing.B) {
	benchDirections(b, func(b *testing.B, m Model, tails bool) {
		ents, anchor, rel, w := sweepBenchTable(m)
		var sw Sweep
		out := make([]float32, 256)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sw.Reset(m, anchor, rel, tails)
			for lo := 0; lo < sweepBenchRows; lo += len(out) {
				n := min(len(out), sweepBenchRows-lo)
				sw.Score(out[:n], ents[lo*w:(lo+n)*w])
				benchSink += out[0]
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/sweepBenchRows, "ns/row")
	})
}

// BenchmarkScoreLoop is the per-row form BenchmarkSweep replaces: one
// Model.Score interface call per candidate.
func BenchmarkScoreLoop(b *testing.B) {
	benchDirections(b, func(b *testing.B, m Model, tails bool) {
		ents, anchor, rel, w := sweepBenchTable(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for c := 0; c < sweepBenchRows; c++ {
				row := ents[c*w : (c+1)*w]
				if tails {
					benchSink += m.Score(anchor, rel, row)
				} else {
					benchSink += m.Score(row, rel, anchor)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/sweepBenchRows, "ns/row")
	})
}
