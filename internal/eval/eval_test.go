package eval

import (
	"math/rand"
	"sort"
	"testing"

	"hetkg/internal/kg"
	"hetkg/internal/model"
	"hetkg/internal/vec"
)

// perfectTables builds TransE embeddings where entity i = (i, 0, ...) and a
// relation that translates by +1 in the first coordinate, so (i, 0, i+1) is
// a perfect triple.
func perfectTables(n, d int) (*vec.Matrix, *vec.Matrix) {
	ents := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		ents.Row(i)[0] = float32(i)
	}
	rels := vec.NewMatrix(1, d)
	rels.Row(0)[0] = 1
	return ents, rels
}

func TestEvaluatePerfectModel(t *testing.T) {
	ents, rels := perfectTables(10, 4)
	test := []kg.Triple{
		{Head: 0, Relation: 0, Tail: 1},
		{Head: 3, Relation: 0, Tail: 4},
		{Head: 7, Relation: 0, Tail: 8},
	}
	res, err := Evaluate(Config{
		Model:    model.TransE{Norm: 1},
		Entities: ents, Relations: rels,
	}, test)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if res.MRR != 1 || res.Hits[1] != 1 || res.MR != 1 {
		t.Errorf("perfect model: MRR=%v Hits@1=%v MR=%v, want all 1", res.MRR, res.Hits[1], res.MR)
	}
	if res.N != 6 { // 3 triples × 2 sides
		t.Errorf("N = %d, want 6", res.N)
	}
}

func TestEvaluateWorstCandidate(t *testing.T) {
	// A triple whose tail is far off: (0, +1, 9) — entity 1 is the perfect
	// tail, and every entity j scores -|j-1|, so 9 ranks last (rank 10
	// among 10 entities). Head corruption: perfect head for tail 9 is 8,
	// head 0 scores -8 → rank 9 (worse candidates: none... entity 9 scores
	// |10-9|=1... compute: head j scores -|j+1-9| = -|j-8|; j=0 → -8, the
	// unique worst → rank 10).
	ents, rels := perfectTables(10, 4)
	test := []kg.Triple{{Head: 0, Relation: 0, Tail: 9}}
	res, err := Evaluate(Config{
		Model:    model.TransE{Norm: 1},
		Entities: ents, Relations: rels,
	}, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.MR != 10 {
		t.Errorf("MR = %v, want 10 (both sides rank last)", res.MR)
	}
}

func TestFilteredSettingExcludesKnownPositives(t *testing.T) {
	// Tail candidates 1 and 2 both score perfectly for (0, +1, ·)... make
	// entity 2 a duplicate of 1 so it ties, then filter the triple (0,0,2)
	// to remove the competitor.
	ents, rels := perfectTables(10, 4)
	ents.Row(2)[0] = 1 // entity 2 now identical to entity 1
	test := []kg.Triple{{Head: 0, Relation: 0, Tail: 1}}
	raw, err := Evaluate(Config{Model: model.TransE{Norm: 1}, Entities: ents, Relations: rels}, test)
	if err != nil {
		t.Fatal(err)
	}
	filter := kg.NewTripleSet([]kg.Triple{{Head: 0, Relation: 0, Tail: 2}})
	filtered, err := Evaluate(Config{
		Model: model.TransE{Norm: 1}, Entities: ents, Relations: rels, Filter: filter,
	}, test)
	if err != nil {
		t.Fatal(err)
	}
	if filtered.MRR <= raw.MRR {
		t.Errorf("filtered MRR (%v) must exceed raw (%v) when a tying positive is excluded",
			filtered.MRR, raw.MRR)
	}
}

func TestSampledCandidates(t *testing.T) {
	ents, rels := perfectTables(100, 4)
	test := []kg.Triple{{Head: 10, Relation: 0, Tail: 11}}
	res, err := Evaluate(Config{
		Model:    model.TransE{Norm: 1},
		Entities: ents, Relations: rels,
		NumCandidates: 20, Seed: 5,
	}, test)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect model: still rank 1 regardless of candidate count.
	if res.MRR != 1 {
		t.Errorf("sampled-candidate MRR = %v, want 1", res.MRR)
	}
}

func TestSampledCandidatesBoundRank(t *testing.T) {
	// Random embeddings: rank can never exceed NumCandidates+1.
	rng := rand.New(rand.NewSource(9))
	ents := vec.NewMatrix(200, 8)
	ents.InitXavier(rng)
	rels := vec.NewMatrix(3, 8)
	rels.InitXavier(rng)
	var test []kg.Triple
	for i := 0; i < 20; i++ {
		test = append(test, kg.Triple{
			Head:     kg.EntityID(rng.Intn(200)),
			Relation: kg.RelationID(rng.Intn(3)),
			Tail:     kg.EntityID(rng.Intn(200)),
		})
	}
	cfg := Config{
		Model:    model.DistMult{},
		Entities: ents, Relations: rels,
		NumCandidates: 10, Seed: 1,
	}
	for _, rk := range tailRanks(cfg, test) {
		if rk < 1 || rk > 11 {
			t.Errorf("rank %d outside [1, 11] with 10 candidates", rk)
		}
	}
}

// tailRanks is each test triple's tail-corruption rank, sorted ascending,
// drawn per triple with the item RNG of its index.
func tailRanks(cfg Config, test []kg.Triple) []int {
	ranks := make([]int, len(test))
	for i, tr := range test {
		ranks[i] = rankOne(cfg, tr, false, cfg.itemRNG(i))
	}
	sort.Ints(ranks)
	return ranks
}

func TestRandomEmbeddingsGiveChanceMRR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 50
	ents := vec.NewMatrix(n, 8)
	ents.InitXavier(rng)
	rels := vec.NewMatrix(2, 8)
	rels.InitXavier(rng)
	var test []kg.Triple
	for i := 0; i < 40; i++ {
		test = append(test, kg.Triple{
			Head:     kg.EntityID(rng.Intn(n)),
			Relation: kg.RelationID(rng.Intn(2)),
			Tail:     kg.EntityID(rng.Intn(n)),
		})
	}
	res, err := Evaluate(Config{Model: model.TransE{Norm: 1}, Entities: ents, Relations: rels}, test)
	if err != nil {
		t.Fatal(err)
	}
	// Chance MRR for n=50 is ≈ H(50)/50 ≈ 0.09; allow a broad band.
	if res.MRR > 0.35 {
		t.Errorf("random embeddings scored MRR %v — evaluation leaks the answer", res.MRR)
	}
	if res.MR < float64(n)/4 {
		t.Errorf("random embeddings MR %v too good", res.MR)
	}
}

func TestConstantModelTiesGetAverageRank(t *testing.T) {
	// All-zero embeddings with DistMult score 0 for everything: with the
	// average tie policy each rank ≈ n/2, not 1.
	ents := vec.NewMatrix(20, 4)
	rels := vec.NewMatrix(1, 4)
	test := []kg.Triple{{Head: 0, Relation: 0, Tail: 1}}
	res, err := Evaluate(Config{Model: model.DistMult{}, Entities: ents, Relations: rels}, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.MR < 5 || res.MR > 15 {
		t.Errorf("constant model MR = %v, want ≈10 (average tie handling)", res.MR)
	}
}

func TestEvaluateValidation(t *testing.T) {
	ents, rels := perfectTables(5, 4)
	if _, err := Evaluate(Config{}, []kg.Triple{{Head: 0, Relation: 0, Tail: 1}}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Evaluate(Config{Model: model.DistMult{}, Entities: ents, Relations: rels}, nil); err == nil {
		t.Error("empty test set accepted")
	}
}

func TestCustomHitsCutoffs(t *testing.T) {
	ents, rels := perfectTables(10, 4)
	test := []kg.Triple{{Head: 0, Relation: 0, Tail: 1}}
	res, err := Evaluate(Config{
		Model: model.TransE{Norm: 1}, Entities: ents, Relations: rels,
		Hits: []int{5},
	}, test)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Hits[5]; !ok {
		t.Error("custom cutoff missing")
	}
	if _, ok := res.Hits[10]; ok {
		t.Error("default cutoff present despite custom Hits")
	}
	if res.String() == "" {
		t.Error("String empty")
	}
}
