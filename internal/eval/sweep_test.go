package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"hetkg/internal/kg"
	"hetkg/internal/model"
	"hetkg/internal/vec"
)

// tiedTables builds random tables for m at base dimension d in which every
// fifth entity row is a copy of an earlier one, so full rankings meet exact
// score ties (with the true entity too), plus a test set and a filter that
// holds the test triples and some of their corruptions.
func tiedTables(m model.Model, n, d int, seed int64) (ents, rels *vec.Matrix, test []kg.Triple, filter *kg.TripleSet) {
	rng := rand.New(rand.NewSource(seed))
	ents = vec.NewMatrix(n, m.EntityDim(d))
	ents.InitUniform(rng, 1)
	for i := 5; i < n; i += 5 {
		copy(ents.Row(i), ents.Row(rng.Intn(i)))
	}
	rels = vec.NewMatrix(3, m.RelationDim(d))
	rels.InitUniform(rng, 1)
	var known []kg.Triple
	for i := 0; i < 30; i++ {
		tr := kg.Triple{Head: kg.EntityID(rng.Intn(n)), Relation: kg.RelationID(rng.Intn(3)), Tail: kg.EntityID(rng.Intn(n))}
		test = append(test, tr)
		known = append(known, tr)
		for j := 0; j < n/4; j++ { // known corruptions the filtered setting must skip
			known = append(known,
				kg.Triple{Head: tr.Head, Relation: tr.Relation, Tail: kg.EntityID(rng.Intn(n))},
				kg.Triple{Head: kg.EntityID(rng.Intn(n)), Relation: tr.Relation, Tail: tr.Tail})
		}
	}
	return ents, rels, test, kg.NewTripleSet(known)
}

// referenceRank is the per-row ranking loop full-ranking evaluation ran
// before it moved onto model.Sweep, kept here as the oracle: one Model.Score
// call per candidate, filter consulted before scoring.
func referenceRank(cfg Config, tr kg.Triple, corruptHead bool) int {
	r := cfg.Relations.Row(int(tr.Relation))
	h := cfg.Entities.Row(int(tr.Head))
	t := cfg.Entities.Row(int(tr.Tail))
	trueScore := cfg.Model.Score(h, r, t)
	higher, equal := 0, 0
	for i := 0; i < cfg.Entities.Rows; i++ {
		e := kg.EntityID(i)
		if corruptHead && e == tr.Head || !corruptHead && e == tr.Tail {
			continue
		}
		cand := kg.Triple{Head: tr.Head, Relation: tr.Relation, Tail: e}
		if corruptHead {
			cand = kg.Triple{Head: e, Relation: tr.Relation, Tail: tr.Tail}
		}
		if cfg.Filter != nil && cfg.Filter.Contains(cand) {
			continue
		}
		var s float32
		if corruptHead {
			s = cfg.Model.Score(cfg.Entities.Row(i), r, t)
		} else {
			s = cfg.Model.Score(h, r, cfg.Entities.Row(i))
		}
		switch {
		case s > trueScore:
			higher++
		case s == trueScore:
			equal++
		}
	}
	rank := 1 + higher
	if equal > 0 {
		rank += (equal + 1) / 2
	}
	return rank
}

// TestFullRankingMatchesPerRowLoop pins full-ranking evaluation
// (NumCandidates 0, `hetkg eval`'s default) to the per-row loop, rank for
// rank: filtered and raw, both corruption sides, kernels and the Score-loop
// fallback, table sizes on and off the tile boundaries.
func TestFullRankingMatchesPerRowLoop(t *testing.T) {
	for _, name := range []string{"transe", "transe_l2", "distmult", "complex", "rotate", "transh"} {
		m, err := model.New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{7, 256, 1003} {
			ents, rels, test, filter := tiedTables(m, n, 6, int64(n))
			for _, f := range []*kg.TripleSet{nil, filter} {
				cfg := Config{Model: m, Entities: ents, Relations: rels, Filter: f, Parallelism: 3}
				label := fmt.Sprintf("%s n=%d filtered=%v", name, n, f != nil)

				var want []int
				for _, tr := range test {
					head, tail := referenceRank(cfg, tr, true), referenceRank(cfg, tr, false)
					want = append(want, head, tail)
					if got := rankOne(cfg, tr, true, nil); got != head {
						t.Fatalf("%s %v: head rank %d, per-row loop %d", label, tr, got, head)
					}
					if got := rankOne(cfg, tr, false, nil); got != tail {
						t.Fatalf("%s %v: tail rank %d, per-row loop %d", label, tr, got, tail)
					}
				}

				res, err := Evaluate(cfg, test)
				if err != nil {
					t.Fatal(err)
				}
				var sumRR, sumRank float64
				for _, rank := range want {
					sumRR += 1 / float64(rank)
					sumRank += float64(rank)
				}
				if res.N != len(want) || res.MRR != sumRR/float64(len(want)) || res.MR != sumRank/float64(len(want)) {
					t.Errorf("%s: Evaluate = %+v, per-row loop gives MRR %v MR %v over %d",
						label, res, sumRR/float64(len(want)), sumRank/float64(len(want)), len(want))
				}

			}
		}
	}
}

// TestSampledRankingIsTheParents pins the sampled-candidate protocol — the
// one training runs and the benchmark's quality metric use, and which does
// not go through the sweep — to the digits it produced before the sweep
// existed.
func TestSampledRankingIsTheParents(t *testing.T) {
	m := model.TransE{Norm: 1}
	ents, rels, test, filter := tiedTables(m, 1003, 6, 9)
	for _, c := range []struct {
		filter *kg.TripleSet
		want   string
	}{
		{nil, sampledGoldenRaw},
		{filter, sampledGoldenFiltered},
	} {
		cfg := Config{Model: m, Entities: ents, Relations: rels, Filter: c.filter, NumCandidates: 100, Seed: 5, Parallelism: 2}
		res, err := Evaluate(cfg, test)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("MRR %.17g MR %.17g Hits %v N %d ranks %v", res.MRR, res.MR, res.Hits, res.N, tailRanks(cfg, test))
		if got != c.want {
			t.Errorf("filtered=%v:\n got %s\nwant %s", c.filter != nil, got, c.want)
		}
	}
}

// Produced by this test's body at the commit before the sweep landed.
const (
	sampledGoldenRaw      = "MRR 0.048950871926964269 MR 51.06666666666667 Hits map[1:0 3:0.03333333333333333 10:0.1] N 60 ranks [6 6 8 12 13 16 16 23 25 27 28 33 34 36 41 52 56 59 60 63 66 67 72 78 82 85 89 95 98 98]"
	sampledGoldenFiltered = "MRR 0.059505521503089 MR 39.68333333333333 Hits map[1:0 3:0.03333333333333333 10:0.15] N 60 ranks [5 5 5 10 11 11 14 17 20 21 21 24 24 31 36 40 46 47 47 49 49 49 50 58 61 61 69 71 77 81]"
)
