package eval

import (
	"math/rand"
	"testing"

	"hetkg/internal/kg"
	"hetkg/internal/model"
	"hetkg/internal/vec"
)

func TestBestThreshold(t *testing.T) {
	// Perfectly separable: positives above, negatives below.
	th := bestThreshold([]float32{2, 3, 4}, []float32{-1, 0, 1})
	if th <= 1 || th >= 2 {
		t.Errorf("threshold %v not in the separating gap (1, 2)", th)
	}
	// All positives: threshold must classify everything positive.
	th = bestThreshold([]float32{1, 2}, nil)
	if th > 1 {
		t.Errorf("all-positive threshold %v too high", th)
	}
	// Overlapping scores: threshold must achieve ≥ 50% by construction.
	th = bestThreshold([]float32{0, 1, 2}, []float32{0.5, 1.5, 2.5})
	_ = th
}

func TestClassifyPerfectModel(t *testing.T) {
	ents, rels := perfectTables(20, 4)
	var valid, test []kg.Triple
	for i := 0; i < 10; i++ {
		valid = append(valid, kg.Triple{Head: kg.EntityID(i), Relation: 0, Tail: kg.EntityID(i + 1)})
	}
	for i := 10; i < 18; i++ {
		test = append(test, kg.Triple{Head: kg.EntityID(i), Relation: 0, Tail: kg.EntityID(i + 1)})
	}
	res, err := Classify(Config{
		Model:    model.TransE{Norm: 1},
		Entities: ents, Relations: rels,
		Seed: 5,
	}, valid, test)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	// A perfect TransE geometry separates positives (score 0) from random
	// corruptions (score < 0) almost always; allow a couple of unlucky
	// corruptions that land on true tails.
	if res.Accuracy < 0.85 {
		t.Errorf("perfect model accuracy = %v, want ≥ 0.85", res.Accuracy)
	}
	if res.N != 2*len(test) {
		t.Errorf("N = %d, want %d", res.N, 2*len(test))
	}
	if len(res.PerRelation) != 1 {
		t.Errorf("PerRelation has %d entries", len(res.PerRelation))
	}
}

func TestClassifyRandomModelNearChance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ents := vec.NewMatrix(50, 8)
	ents.InitXavier(rng)
	rels := vec.NewMatrix(2, 8)
	rels.InitXavier(rng)
	var valid, test []kg.Triple
	for i := 0; i < 60; i++ {
		tr := kg.Triple{
			Head:     kg.EntityID(rng.Intn(50)),
			Relation: kg.RelationID(rng.Intn(2)),
			Tail:     kg.EntityID(rng.Intn(50)),
		}
		if i < 30 {
			valid = append(valid, tr)
		} else {
			test = append(test, tr)
		}
	}
	res, err := Classify(Config{
		Model:    model.DistMult{},
		Entities: ents, Relations: rels,
		Seed: 7,
	}, valid, test)
	if err != nil {
		t.Fatal(err)
	}
	// Random embeddings, random "positives": accuracy should hover near
	// 0.5 (threshold overfits slightly on tiny valid sets).
	if res.Accuracy < 0.3 || res.Accuracy > 0.75 {
		t.Errorf("random model accuracy = %v, want ≈ 0.5", res.Accuracy)
	}
}

func TestClassifyUnseenRelationUsesGlobalThreshold(t *testing.T) {
	ents, rels2 := perfectTables(20, 4)
	// Two relations in the tables; valid covers only relation 0.
	rels := vec.NewMatrix(2, 4)
	copy(rels.Row(0), rels2.Row(0))
	rels.Row(1)[0] = 1
	valid := []kg.Triple{{Head: 0, Relation: 0, Tail: 1}, {Head: 1, Relation: 0, Tail: 2}}
	test := []kg.Triple{{Head: 3, Relation: 1, Tail: 4}}
	res, err := Classify(Config{
		Model:    model.TransE{Norm: 1},
		Entities: ents, Relations: rels,
		Seed: 8,
	}, valid, test)
	if err != nil {
		t.Fatalf("Classify with unseen relation: %v", err)
	}
	if res.N != 2 {
		t.Errorf("N = %d", res.N)
	}
}

func TestClassifyValidation(t *testing.T) {
	ents, rels := perfectTables(5, 4)
	cfg := Config{Model: model.DistMult{}, Entities: ents, Relations: rels}
	if _, err := Classify(cfg, nil, []kg.Triple{{Head: 0, Relation: 0, Tail: 1}}); err == nil {
		t.Error("empty valid accepted")
	}
	if _, err := Classify(cfg, []kg.Triple{{Head: 0, Relation: 0, Tail: 1}}, nil); err == nil {
		t.Error("empty test accepted")
	}
	if _, err := Classify(Config{}, []kg.Triple{{}}, []kg.Triple{{}}); err == nil {
		t.Error("nil model accepted")
	}
}

func TestClassifyFilterAvoidsFalseNegatives(t *testing.T) {
	// With a filter covering every possible corruption except one, the
	// sampler must find that one (or give up after bounded tries without
	// hanging).
	ents, rels := perfectTables(4, 4)
	all := kg.NewTripleSet([]kg.Triple{
		{Head: 0, Relation: 0, Tail: 0},
		{Head: 0, Relation: 0, Tail: 1},
		{Head: 0, Relation: 0, Tail: 2},
	})
	valid := []kg.Triple{{Head: 0, Relation: 0, Tail: 1}}
	test := []kg.Triple{{Head: 0, Relation: 0, Tail: 2}}
	if _, err := Classify(Config{
		Model:    model.TransE{Norm: 1},
		Entities: ents, Relations: rels,
		Filter: all,
		Seed:   9,
	}, valid, test); err != nil {
		t.Fatalf("Classify with dense filter: %v", err)
	}
}
