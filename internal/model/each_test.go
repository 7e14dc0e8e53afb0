package model

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hetkg/internal/vec"
)

// eachPaths runs f with the ScoreEach kernels off ("go"), then, where the
// CPU runs them, on ("avx2"). Sweep.Reset picks the kernel, so f Resets.
func eachPaths(f func(path string)) {
	has := eachKernels
	defer func() { eachKernels = has }()
	eachKernels = false
	f("go")
	if has {
		eachKernels = true
		f("avx2")
	}
}

// checkEach holds ScoreEach over rows to m.Score on every bit, the query
// (anchor, rel) in the given direction.
func checkEach(t testing.TB, label string, sw *Sweep, m Model, anchor, rel []float32, tails bool, rows [][]float32) {
	t.Helper()
	out := make([]float32, len(rows))
	sw.Reset(m, anchor, rel, tails)
	sw.ScoreEach(out, rows)
	for k, row := range rows {
		var want float32
		if tails {
			want = m.Score(anchor, rel, row)
		} else {
			want = m.Score(row, rel, anchor)
		}
		if math.Float32bits(out[k]) != math.Float32bits(want) {
			t.Fatalf("%s tails=%v row %d of %d: ScoreEach %v (%#08x), Score %v (%#08x)",
				label, tails, k, len(rows), out[k], math.Float32bits(out[k]), want, math.Float32bits(want))
		}
	}
}

// TestEachKernelsFollowVecCPUCheck keeps a detection bug from passing as
// "no gain": the ScoreEach kernels are on exactly where vec's one CPU check
// says AVX2 runs, and vec's TestBlockKernelsOnWhereCPUHasAVX2 holds that
// check to /proc/cpuinfo.
func TestEachKernelsFollowVecCPUCheck(t *testing.T) {
	if eachKernels != vec.HasAVX2() {
		t.Fatalf("ScoreEach kernels on = %v, vec.HasAVX2() = %v", eachKernels, vec.HasAVX2())
	}
}

// TestScoreEachMatchesScore holds ScoreEach to m.Score bit for bit the way
// a training chunk calls it: negatives drawn with repeats from a table, in
// both directions, for every model, with the kernels off and on; ComplEx at
// widths on and off the kernels' gate and at chunk sizes on and off the
// eight-row block, with rows and queries mixed with ±0, ±Inf, subnormals
// and NaNs with payloads.
func TestScoreEachMatchesScore(t *testing.T) {
	var sw Sweep
	for _, name := range Names() {
		m, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		dims := []int{3, 8, 16}
		if name == "complex" {
			dims = []int{1, 2, 4, 6, 8, 12, 64, 128}
		}
		for _, d := range dims {
			rng := rand.New(rand.NewSource(int64(40 + d)))
			w := m.EntityDim(d)
			table := make([][]float32, 48)
			for trial := 0; trial < 60; trial++ {
				dirty := []float64{0, 0.002, 0.05, 0.5}[trial%4]
				for i := range table {
					table[i], _, _ = kernelRows(rng, w, dirty)
				}
				anchor, _, _ := kernelRows(rng, w, dirty)
				_, rel, _ := kernelRows(rng, m.RelationDim(d), dirty)
				rows := make([][]float32, []int{0, 3, 8, 11, 32, 45}[trial%6])
				for k := range rows {
					rows[k] = table[rng.Intn(len(table))]
				}
				eachPaths(func(path string) {
					for _, tails := range []bool{true, false} {
						checkEach(t, fmt.Sprintf("%s %s d=%d trial %d", path, name, d, trial), &sw, m, anchor, rel, tails, rows)
					}
				})
			}
		}
	}
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
	eachPaths(func(path string) { checkEach(t, path+" one wide row", &sw, m, anchor, rel, true, rows) })
	rows[11] = rows[11][:w-2]
	defer func() {
		if recover() == nil {
			t.Error("ScoreEach over a row narrower than ComplEx's width did not panic")
		}
	}()
	sw.Reset(m, anchor, rel, true)
	sw.ScoreEach(make([]float32, len(rows)), rows)
}

// FuzzScoreEach decodes a model, a direction, a base width (every other
// input a multiple of 4, so ComplEx rows pass the kernels' gate), a chunk
// size and the raw bits of the query and the candidate rows, and holds
// ScoreEach with the kernels off and on to m.Score bit for bit.
func FuzzScoreEach(f *testing.F) {
	f.Add([]byte{4, 16, 9, 0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0xff, 0x01, 0x00, 0x00, 0x80})
	f.Add([]byte{5, 17, 32, 0x3f, 0x80, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x00})
	f.Add([]byte{0, 64, 8, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x0f, 0x1e, 0x2d})
	f.Add([]byte{15, 3, 5})
	names := Names()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m, err := New(names[int(data[0]>>1)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		tails := data[0]&1 == 0
		d := 1 + int(data[1]>>1)%40
		if data[1]&1 == 0 {
			d = max(4, d&^3)
		}
		if m.Name() == "RESCAL" || m.Name() == "HolE" {
			d = min(d, 12) // O(d²) per score
		}
		n := int(data[2]) % 41
		raw := data[3:]
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
		next := 0
		row := func(w int) []float32 {
			r := make([]float32, w)
			for i := range r {
				r[i] = word(next)
				next++
			}
			return r
		}
		w := m.EntityDim(d)
		anchor, rel := row(w), row(m.RelationDim(d))
		rows := make([][]float32, n)
		for k := range rows {
			rows[k] = row(w)
		}
		var sw Sweep
		eachPaths(func(path string) {
			checkEach(t, fmt.Sprintf("%s %s d=%d", path, m.Name(), d), &sw, m, anchor, rel, tails, rows)
		})
	})
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
