package model

import (
	"math"
	"math/rand"
	"testing"

	"hetkg/internal/vec"
	"hetkg/internal/vec/kerneltest"
)

// eachEntries registers Sweep.ScoreEach of every model in both directions
// against Model.Score.
var eachEntries = func() []kerneltest.Kernel {
	var ks []kerneltest.Kernel
	for _, name := range Names() {
		m, err := New(name)
		if err != nil {
			panic(err)
		}
		ks = append(ks, eachKernel(m, true), eachKernel(m, false))
	}
	return ks
}()

// eachKernel takes the anchor, the relation and N candidate rows.
func eachKernel(m Model, tails bool) kerneltest.Kernel {
	name := m.Name() + " ScoreEach heads"
	if tails {
		name = m.Name() + " ScoreEach tails"
	}
	return kerneltest.Kernel{Name: name,
		Widths: func(d, n int) []int {
			w := []int{m.EntityDim(d), m.RelationDim(d)}
			for ; n > 0; n-- {
				w = append(w, m.EntityDim(d))
			}
			return w
		},
		Run: func(c kerneltest.Case, ops [][]float32) []float32 {
			var sw Sweep
			out := kerneltest.Unwritten(c.N)
			sw.Reset(m, ops[0], ops[1], tails)
			sw.ScoreEach(out, ops[2:])
			return out
		},
		Ref: func(c kerneltest.Case, ops [][]float32) []float32 {
			out := make([]float32, c.N)
			for k, row := range ops[2:] {
				if tails {
					out[k] = m.Score(ops[0], ops[1], row)
				} else {
					out[k] = m.Score(row, ops[1], ops[0])
				}
			}
			return out
		}}
}

// TestScoreEachMatchesScore holds ScoreEach of every model in both
// directions, kernels off and on, to Model.Score (kerneltest.Run).
func TestScoreEachMatchesScore(t *testing.T) { kerneltest.Run(t, eachEntries) }

// FuzzScoreEach holds ScoreEach to Model.Score on decoded cases
// (kerneltest.Decode).
func FuzzScoreEach(f *testing.F) {
	kerneltest.Fuzz(f, eachEntries,
		[]byte{16, 9, 0, 0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0xff, 0x01, 0x00, 0x00, 0x80},
		[]byte{19, 32, 0, 0x3f, 0x80, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x00},
		[]byte{64, 8, 0, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x0f, 0x1e, 0x2d},
		[]byte{5, 5, 0})
}

// TestScoreEachOffWidthRowsGoToScore pins the gate: one row wider or
// narrower than the query sends the whole call to m.Score, which scores a
// wider ComplEx tail on its first 2d floats and panics on a narrower one,
// as a direct call does.
func TestScoreEachOffWidthRowsGoToScore(t *testing.T) {
	m := ComplEx{}
	rng := rand.New(rand.NewSource(5))
	w := m.EntityDim(16)
	anchor, rel := normalRow(rng, w), normalRow(rng, w)
	rows := make([][]float32, 16)
	for k := range rows {
		rows[k] = normalRow(rng, w)
	}
	rows[11] = normalRow(rng, w+4)
	var sw Sweep
	out := make([]float32, len(rows))
	defer vec.SetKernels(vec.Kernels())
	for _, on := range []bool{false, true} {
		if !vec.SetKernels(on) {
			continue
		}
		sw.Reset(m, anchor, rel, true)
		sw.ScoreEach(out, rows)
		for k, row := range rows {
			if want := m.Score(anchor, rel, row); math.Float32bits(out[k]) != math.Float32bits(want) {
				t.Fatalf("kernels on=%v, one wide row, row %d: ScoreEach %#08x, Score %#08x", on, k, math.Float32bits(out[k]), math.Float32bits(want))
			}
		}
	}
	rows[11] = rows[11][:w-2]
	defer func() {
		if recover() == nil {
			t.Error("ScoreEach over a row narrower than ComplEx's width did not panic")
		}
	}()
	sw.Reset(m, anchor, rel, true)
	sw.ScoreEach(make([]float32, len(rows)), rows)
}

// BenchmarkSweepEach times one training chunk's negative scoring in
// inproc-compute's shape: ComplEx at d = 128, one Reset and a ScoreEach
// over 32 negatives drawn from a 20 000-row table, in both directions.
func BenchmarkSweepEach(b *testing.B) {
	const negatives = 32
	m := ComplEx{}
	w := m.EntityDim(128)
	rng := rand.New(rand.NewSource(1))
	table := make([][]float32, 20000)
	for i := range table {
		table[i] = normalRow(rng, w)
	}
	rel := normalRow(rng, m.RelationDim(128))
	chunks := make([][][]float32, 64)
	for c := range chunks {
		chunks[c] = make([][]float32, negatives)
		for k := range chunks[c] {
			chunks[c][k] = table[rng.Intn(len(table))]
		}
	}
	for _, tails := range []bool{true, false} {
		dir := "heads"
		if tails {
			dir = "tails"
		}
		b.Run(dir, func(b *testing.B) {
			var sw Sweep
			out := make([]float32, negatives)
			for i := 0; i < b.N; i++ {
				sw.Reset(m, table[i%len(table)], rel, tails)
				sw.ScoreEach(out, chunks[i%len(chunks)])
				benchSink += out[0]
			}
		})
	}
}
