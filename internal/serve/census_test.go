package serve

import (
	"math/rand"
	"testing"

	"hetkg/internal/kg"
	"hetkg/internal/knn"
	"hetkg/internal/vec"
)

// TestEarlyExitCensus measures the exact early-exit sweep for distance
// models, which ROADMAP parks, on the serve-zipf shape: a 20 000×64 TransE-ℓ1
// table (InitKGE), 200 relations, 200 tail predictions whose entities are
// Zipf(1.1) over a shuffled id order, top 10. A row may stop once its
// partial distance at d/4, d/2 or 3d/4 already ranks it below the current
// 10th best — exact, since the terms are non-negative. The census counts
// the rows each checkpoint would drop and the share of elements still
// computed. On this table almost nothing goes early: unit rows in 64
// dimensions sit at nearly the same distance from any query, so a quarter
// or half of a row's terms never separates it from the best ten. The test
// fails when that stops holding, so the parked item gets measured again.
func TestEarlyExitCensus(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("sweeps 4M rows element by element")
	}
	const rows, dim, rels, queries, k = 20000, 64, 200, 200, 10
	rng := rand.New(rand.NewSource(42))
	ents, relm := vec.NewMatrix(rows, dim), vec.NewMatrix(rels, dim)
	ents.InitKGE(rng)
	relm.InitKGE(rng)
	perm := rng.Perm(rows)
	zipf := rand.NewZipf(rng, 1.1, 1, rows-1)

	var top knn.TopK
	q := make([]float32, dim)
	var dropped [3]int // rows stopped at d/4, d/2, 3d/4
	computed := 0      // elements computed
	for i := 0; i < queries; i++ {
		vec.Add(q, ents.Row(perm[zipf.Uint64()]), relm.Row(rng.Intn(rels)))
		top.Reset(k)
		for r := 0; r < rows; r++ {
			row := ents.Row(r)
			var dist float32
			quarter := 0
			for ; quarter < 4; quarter++ {
				for c := quarter * dim / 4; c < (quarter+1)*dim/4; c++ {
					dist += vec.Abs(q[c] - row[c])
				}
				if quarter < 3 && top.Rejects(-dist) {
					dropped[quarter]++
					break
				}
			}
			computed += min(quarter+1, 4) * dim / 4
			if quarter == 4 && !top.Rejects(-dist) {
				top.Offer(kg.EntityID(r), -dist)
			}
		}
	}
	pct := func(n, of int) float64 { return 100 * float64(n) / float64(of) }
	scanned := queries * rows
	t.Logf("dropped at d/4 %.1f%%, d/2 %.1f%%, 3d/4 %.1f%% of %d rows; %.1f%% of elements computed",
		pct(dropped[0], scanned), pct(dropped[1], scanned), pct(dropped[2], scanned), scanned,
		pct(computed, scanned*dim))
	if early := dropped[0] + dropped[1]; pct(early, scanned) > 1 || pct(computed, scanned*dim) < 85 {
		t.Errorf("the early exit now drops %d rows by d/2 and computes %.1f%% of elements: the early-exit item was parked on 0 and 92.5%%, measure it again",
			early, pct(computed, scanned*dim))
	}
}
