package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"hetkg/internal/ckpt"
	"hetkg/internal/knn"
	"hetkg/internal/vec"
)

// benchCheckpoint builds a synthetic checkpoint large enough that the sweep
// dominates (no training needed to benchmark the read path).
func benchCheckpoint(ents, dim int) *ckpt.Checkpoint {
	rng := rand.New(rand.NewSource(1))
	e := vec.NewMatrix(ents, dim)
	r := vec.NewMatrix(8, dim)
	e.InitKGE(rng)
	r.InitKGE(rng)
	return &ckpt.Checkpoint{
		ModelName: "transe",
		Dim:       dim,
		Dataset:   "synthetic",
		Entities:  e,
		Relations: r,
	}
}

// benchServer builds a server over a synthetic checkpoint with tracing off,
// the configuration the allocation criterion is stated for.
func benchServer(tb testing.TB, ents, dim int) *Server {
	tb.Helper()
	s, err := New(Config{Checkpoint: benchCheckpoint(ents, dim)})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestPredictZeroAlloc pins the acceptance criterion: after warmup, a
// prediction allocates nothing — a pooled sweep scratch (query buffer, top-k
// heap, score tile) and a caller-owned destination slice cover the whole
// path.
func TestPredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	s := benchServer(t, 2000, 16)
	dst := make([]knn.Result, 0, 10)
	var err error
	for i := 0; i < 10; i++ { // warm pools and lazily-grown buffers
		if dst, err = s.PredictInto(dst, i, 0, true, 10); err != nil {
			t.Fatal(err)
		}
	}
	e := 0
	avg := testing.AllocsPerRun(100, func() {
		dst, _ = s.PredictInto(dst, e, 0, true, 10)
		e = (e + 1) % 100
	})
	if avg != 0 {
		t.Errorf("PredictInto allocates %.2f objects per call, want 0", avg)
	}
}

// TestScoreZeroAlloc pins the same property for the scoring path.
func TestScoreZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	s := benchServer(t, 100, 16)
	if _, err := s.ScoreTriple(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		s.ScoreTriple(1, 0, 2)
	})
	if avg != 0 {
		t.Errorf("ScoreTriple allocates %.2f objects per call, want 0", avg)
	}
}

// TestNeighborsZeroAlloc pins it for the similarity path.
func TestNeighborsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	s := benchServer(t, 2000, 16)
	dst := make([]knn.Result, 0, 10)
	var err error
	if dst, err = s.NeighborsInto(dst, 0, 10); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		dst, _ = s.NeighborsInto(dst, 5, 10)
	})
	if avg != 0 {
		t.Errorf("NeighborsInto allocates %.2f objects per call, want 0", avg)
	}
}

// BenchmarkPredict measures the single-caller prediction sweep
// (ReportAllocs documents the zero-allocation hot path).
func BenchmarkPredict(b *testing.B) {
	s := benchServer(b, 50000, 64)
	dst := make([]knn.Result, 0, 10)
	var err error
	if dst, err = s.PredictInto(dst, 0, 0, true, 10); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = s.PredictInto(dst, i%1000, 0, true, 10)
	}
}

// BenchmarkPredictConcurrent measures prediction throughput under 2, 8 and
// 32 closed-loop callers, each sweeping on its own goroutine. RunParallel
// starts a multiple of GOMAXPROCS callers, so where the count is not one,
// the next multiple runs and the callers metric says how many.
func BenchmarkPredictConcurrent(b *testing.B) {
	s := benchServer(b, 50000, 64)
	for _, callers := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			procs := runtime.GOMAXPROCS(0)
			p := (callers + procs - 1) / procs
			b.SetParallelism(p)
			b.ReportAllocs()
			b.ReportMetric(float64(p*procs), "callers")
			b.RunParallel(func(pb *testing.PB) {
				dst := make([]knn.Result, 0, 10)
				i := 0
				for pb.Next() {
					dst, _ = s.PredictInto(dst, i%1000, 0, true, 10)
					i++
				}
			})
		})
	}
}

// BenchmarkScoreTriple measures /v1/score's direct call on serve-zipf's
// table shape (20 000 x 64) over a seeded stream of Zipf(1.1) heads and
// tails. A pass of the stream is 3 x 2^14 row reads, enough for a row cache
// rebuilt every 4 096 reads to rebuild twelve times, so a cache put in front
// of the rows is measured warm, rebuilds included (DESIGN.md §9.2).
func BenchmarkScoreTriple(b *testing.B) {
	const ents = 20000
	s := benchServer(b, ents, 64)
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.1, 1, ents-1)
	stream := make([][3]int, 1<<14)
	for i := range stream {
		stream[i] = [3]int{int(zipf.Uint64()), rng.Intn(s.ck.Relations.Rows), int(zipf.Uint64())}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := stream[i%len(stream)]
		s.ScoreTriple(q[0], q[1], q[2])
	}
}
