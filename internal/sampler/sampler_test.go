package sampler

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hetkg/internal/kg"
)

func lineGraph(t *testing.T, n int) *kg.Graph {
	t.Helper()
	triples := make([]kg.Triple, n)
	for i := range triples {
		triples[i] = kg.Triple{
			Head:     kg.EntityID(i % 20),
			Relation: kg.RelationID(i % 3),
			Tail:     kg.EntityID((i + 1) % 20),
		}
	}
	return kg.MustNewGraph("line", 20, 3, triples)
}

func newSampler(t *testing.T, cfg Config, g *kg.Graph, seed int64) *Sampler {
	t.Helper()
	s, err := New(cfg, g, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	good := Config{BatchSize: 4, NegPerPos: 2, ChunkSize: 2, NumEntity: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{BatchSize: 0, NegPerPos: 1, NumEntity: 10},
		{BatchSize: 1, NegPerPos: -1, NumEntity: 10},
		{BatchSize: 1, NegPerPos: 1, NumEntity: 1},
		{BatchSize: 1, NegPerPos: 1, NumEntity: 10, ChunkSize: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestBatchShape(t *testing.T) {
	g := lineGraph(t, 100)
	s := newSampler(t, Config{BatchSize: 8, NegPerPos: 4, ChunkSize: 1, NumEntity: 20}, g, 1)
	b := s.Next()
	if len(b.Pos) != 8 || len(b.Neg) != 8 {
		t.Fatalf("batch %d/%d, want 8/8", len(b.Pos), len(b.Neg))
	}
	if b.NumNegatives() != 32 {
		t.Errorf("NumNegatives = %d, want 32", b.NumNegatives())
	}
	for i, ns := range b.Neg {
		if len(ns.Entities) != 4 {
			t.Errorf("Neg[%d] has %d entities, want 4", i, len(ns.Entities))
		}
		for _, e := range ns.Entities {
			if e < 0 || int(e) >= 20 {
				t.Errorf("negative entity %d out of range", e)
			}
		}
	}
}

func TestEpochCoversAllTriples(t *testing.T) {
	g := lineGraph(t, 50)
	s := newSampler(t, Config{BatchSize: 7, NegPerPos: 1, NumEntity: 20}, g, 2)
	seen := map[kg.Triple]int{}
	iters := s.IterationsPerEpoch()
	if iters != 8 { // ceil(50/7)
		t.Fatalf("IterationsPerEpoch = %d, want 8", iters)
	}
	for i := 0; i < iters; i++ {
		for _, p := range s.Next().Pos {
			seen[p]++
		}
	}
	// 8 batches × 7 = 56 > 50, so up to 6 triples repeat after reshuffle,
	// but every distinct triple must be visited at least once.
	distinct := map[kg.Triple]bool{}
	for _, tr := range g.Triples {
		distinct[tr] = true
	}
	for tr := range distinct {
		if seen[tr] == 0 {
			t.Errorf("triple %v never sampled in epoch", tr)
		}
	}
}

func TestChunkedSharing(t *testing.T) {
	g := lineGraph(t, 100)
	s := newSampler(t, Config{BatchSize: 8, NegPerPos: 3, ChunkSize: 4, NumEntity: 20}, g, 3)
	b := s.Next()
	if b.Neg[0] != b.Neg[3] {
		t.Error("positives 0 and 3 in same chunk must share the NegativeSample")
	}
	if b.Neg[0] == b.Neg[4] {
		t.Error("positives 0 and 4 in different chunks must not share")
	}
}

func TestChunkedReducesDistinctRows(t *testing.T) {
	g := lineGraph(t, 1000)
	indep := newSampler(t, Config{BatchSize: 64, NegPerPos: 16, ChunkSize: 1, NumEntity: 20}, g, 4)
	chunked := newSampler(t, Config{BatchSize: 64, NegPerPos: 16, ChunkSize: 16, NumEntity: 20}, g, 4)
	// With only 20 entities dedup saturates, so count raw id references
	// instead: chunked generates 64/16=4 shared sets of 16 vs 64 sets.
	bi := indep.Next()
	bc := chunked.Next()
	rawI, rawC := 0, 0
	seenI := map[*NegativeSample]bool{}
	seenC := map[*NegativeSample]bool{}
	for i := range bi.Neg {
		if !seenI[bi.Neg[i]] {
			seenI[bi.Neg[i]] = true
			rawI += len(bi.Neg[i].Entities)
		}
		if !seenC[bc.Neg[i]] {
			seenC[bc.Neg[i]] = true
			rawC += len(bc.Neg[i].Entities)
		}
	}
	if rawI != 64*16 || rawC != 4*16 {
		t.Errorf("raw negative entity draws: independent %d (want 1024), chunked %d (want 64)", rawI, rawC)
	}
}

func TestDistinctIDsDeduplicates(t *testing.T) {
	b := &Batch{
		Pos: []kg.Triple{
			{Head: 0, Relation: 0, Tail: 1},
			{Head: 1, Relation: 0, Tail: 2},
			{Head: 0, Relation: 1, Tail: 1},
		},
		Neg: []*NegativeSample{
			{Entities: []kg.EntityID{2, 3}},
			{Entities: []kg.EntityID{3, 3}},
			{Entities: []kg.EntityID{0}},
		},
	}
	ents, rels := b.DistinctIDs()
	if len(ents) != 4 { // 0,1,2,3
		t.Errorf("distinct entities = %v, want 4 ids", ents)
	}
	if len(rels) != 2 {
		t.Errorf("distinct relations = %v, want 2 ids", rels)
	}
}

// TestDistinctIDsFirstTouchOrder pins DistinctIDs' order: ids in the order
// the batch first touches them — per positive its head, its tail, then its
// chunk's negatives, and relations per positive. The plan census's access
// stream (the LRU and Belady replays) is this order, and the training step
// no longer calls DistinctIDs, so nothing else guards it.
func TestDistinctIDsFirstTouchOrder(t *testing.T) {
	chunk := &NegativeSample{Entities: []kg.EntityID{9, 4, 7}}
	b := &Batch{
		Pos: []kg.Triple{
			{Head: 5, Relation: 3, Tail: 8},
			{Head: 7, Relation: 1, Tail: 5},
			{Head: 2, Relation: 3, Tail: 6},
		},
		Neg: []*NegativeSample{chunk, chunk, {Entities: []kg.EntityID{1, 6, 0}}},
	}
	ents, rels := b.DistinctIDs()
	if want := []kg.EntityID{5, 8, 9, 4, 7, 2, 6, 1, 0}; !slices.Equal(ents, want) {
		t.Errorf("entities = %v, want first-touch order %v", ents, want)
	}
	if want := []kg.RelationID{3, 1}; !slices.Equal(rels, want) {
		t.Errorf("relations = %v, want first-touch order %v", rels, want)
	}
}

func TestFilterRejectsFalseNegatives(t *testing.T) {
	// Graph over 3 entities where almost everything is a positive: the
	// filter must steer corruption toward the one non-positive option.
	triples := []kg.Triple{
		{Head: 0, Relation: 0, Tail: 1},
		{Head: 0, Relation: 0, Tail: 2},
	}
	g := kg.MustNewGraph("dense", 3, 1, triples)
	filter := kg.NewTripleSet(triples)
	s := newSampler(t, Config{BatchSize: 2, NegPerPos: 8, ChunkSize: 1, NumEntity: 3, Filter: filter}, g, 5)
	falseNeg, total := 0, 0
	for it := 0; it < 50; it++ {
		b := s.Next()
		for i, p := range b.Pos {
			for j := range b.Neg[i].Entities {
				total++
				if filter.Contains(negTriple(p, b.Neg[i], j)) {
					falseNeg++
				}
			}
		}
	}
	unfiltered := newSampler(t, Config{BatchSize: 2, NegPerPos: 8, ChunkSize: 1, NumEntity: 3}, g, 5)
	falseNegU := 0
	for it := 0; it < 50; it++ {
		b := unfiltered.Next()
		for i, p := range b.Pos {
			for j := range b.Neg[i].Entities {
				if filter.Contains(negTriple(p, b.Neg[i], j)) {
					falseNegU++
				}
			}
		}
	}
	if falseNeg >= falseNegU {
		t.Errorf("filtered sampler produced %d false negatives vs %d unfiltered; filter ineffective", falseNeg, falseNegU)
	}
}

// negTriple materializes the j-th negative triple for positive p under the
// sample ns: the oracle the filter test checks sampled negatives with.
func negTriple(p kg.Triple, ns *NegativeSample, j int) kg.Triple {
	if ns.CorruptHead {
		return kg.Triple{Head: ns.Entities[j], Relation: p.Relation, Tail: p.Tail}
	}
	return kg.Triple{Head: p.Head, Relation: p.Relation, Tail: ns.Entities[j]}
}

func TestNegTriple(t *testing.T) {
	p := kg.Triple{Head: 1, Relation: 2, Tail: 3}
	nsHead := &NegativeSample{Entities: []kg.EntityID{9}, CorruptHead: true}
	if got := negTriple(p, nsHead, 0); got != (kg.Triple{Head: 9, Relation: 2, Tail: 3}) {
		t.Errorf("head corruption = %v", got)
	}
	nsTail := &NegativeSample{Entities: []kg.EntityID{9}, CorruptHead: false}
	if got := negTriple(p, nsTail, 0); got != (kg.Triple{Head: 1, Relation: 2, Tail: 9}) {
		t.Errorf("tail corruption = %v", got)
	}
}

func TestSamplerDeterministic(t *testing.T) {
	g := lineGraph(t, 100)
	cfg := Config{BatchSize: 8, NegPerPos: 2, ChunkSize: 2, NumEntity: 20}
	a := newSampler(t, cfg, g, 42)
	b := newSampler(t, cfg, g, 42)
	for it := 0; it < 5; it++ {
		ba, bb := a.Next(), b.Next()
		for i := range ba.Pos {
			if ba.Pos[i] != bb.Pos[i] {
				t.Fatalf("iteration %d positive %d differs", it, i)
			}
			for j := range ba.Neg[i].Entities {
				if ba.Neg[i].Entities[j] != bb.Neg[i].Entities[j] {
					t.Fatalf("iteration %d negative (%d,%d) differs", it, i, j)
				}
			}
		}
	}
}

func TestNewRejectsEmptyGraph(t *testing.T) {
	g := &kg.Graph{Name: "empty", NumEntity: 5, NumRel: 1}
	if _, err := New(Config{BatchSize: 1, NegPerPos: 1, NumEntity: 5}, g, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestBatchSizeLargerThanGraph(t *testing.T) {
	g := lineGraph(t, 5)
	s := newSampler(t, Config{BatchSize: 100, NegPerPos: 1, NumEntity: 20}, g, 6)
	b := s.Next()
	if len(b.Pos) != 5 {
		t.Errorf("batch size %d, want clamped to 5", len(b.Pos))
	}
}

func TestAliasTableDistribution(t *testing.T) {
	weights := []float64{1, 2, 4, 8}
	at, err := NewAliasTable(weights)
	if err != nil {
		t.Fatalf("NewAliasTable: %v", err)
	}
	if at.Len() != 4 {
		t.Fatalf("Len = %d", at.Len())
	}
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 4)
	const draws = 60000
	for i := 0; i < draws; i++ {
		counts[at.Sample(rng)]++
	}
	total := 1.0 + 2 + 4 + 8
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / draws
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("index %d: empirical %.4f, want ≈%.4f", i, got, want)
		}
	}
}

func TestAliasTableValidation(t *testing.T) {
	if _, err := NewAliasTable(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := NewAliasTable([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewAliasTable([]float64{0, 0}); err == nil {
		t.Error("all-zero weights accepted")
	}
	// Degenerate single-element and zero-containing distributions work.
	at, err := NewAliasTable([]float64{0, 5, 0})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		if at.Sample(rng) != 1 {
			t.Fatal("zero-weight index sampled")
		}
	}
}

func TestDegreeWeights(t *testing.T) {
	w := DegreeWeights([]int{0, 1, 16})
	if w[0] != 1 || w[1] != 1 { // floor at degree 1
		t.Errorf("low-degree weights %v, want floor 1", w[:2])
	}
	if w[2] < 7.9 || w[2] > 8.1 { // 16^0.75 = 8
		t.Errorf("16^0.75 = %v, want 8", w[2])
	}
}

func TestDegreeWeightedNegativesBiasTowardHubs(t *testing.T) {
	// A hub graph: entity 0 has huge degree. Degree-weighted corruption
	// must pick it far more often than uniform.
	var triples []kg.Triple
	for i := 1; i < 20; i++ {
		triples = append(triples, kg.Triple{Head: 0, Relation: 0, Tail: kg.EntityID(i)})
	}
	g := kg.MustNewGraph("hub", 20, 1, triples)
	cfg := Config{
		BatchSize: 8, NegPerPos: 8, ChunkSize: 1, NumEntity: 20,
		NegativeWeights: DegreeWeights(g.EntityDegrees()),
	}
	s, err := New(cfg, g, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	hub, total := 0, 0
	for it := 0; it < 100; it++ {
		b := s.Next()
		for _, ns := range b.Neg {
			for _, e := range ns.Entities {
				total++
				if e == 0 {
					hub++
				}
			}
		}
	}
	frac := float64(hub) / float64(total)
	// deg(0)=19, others deg 1: weight share = 19^0.75/(19^0.75+19) ≈ 0.32.
	if frac < 0.2 {
		t.Errorf("hub sampled %.3f of the time, want ≈0.32 (uniform would be 0.05)", frac)
	}
}

func TestNegativeWeightsValidation(t *testing.T) {
	g := lineGraph(t, 10)
	cfg := Config{BatchSize: 2, NegPerPos: 1, NumEntity: 20, NegativeWeights: []float64{1, 2}}
	if _, err := New(cfg, g, rand.New(rand.NewSource(1))); err == nil {
		t.Error("wrong-length weights accepted")
	}
}

// refNext is Next with the filter as a lookup per sharer: each draw asks
// Contains of every positive the chunk's negatives go to. It shares s's
// RNG, positive walk and re-draw rule, and is the oracle the stamp is held
// to.
func refNext(s *Sampler) *Batch {
	bp := min(s.cfg.BatchSize, len(s.triples))
	pos := make([]kg.Triple, bp)
	for i := range pos {
		if s.cursor >= len(s.perm) {
			s.reshuffle()
		}
		pos[i] = s.triples[s.perm[s.cursor]]
		s.cursor++
	}
	b := &Batch{Pos: pos, Neg: make([]*NegativeSample, bp)}
	chunk := max(s.cfg.ChunkSize, 1)
	for start := 0; start < bp; start += chunk {
		end := min(start+chunk, bp)
		sharedBy := pos[start:end]
		ns := &NegativeSample{
			Entities:    make([]kg.EntityID, 0, s.cfg.NegPerPos),
			CorruptHead: s.rng.Intn(2) == 0,
		}
		collides := func(e kg.EntityID) bool {
			for _, p := range sharedBy {
				cand := kg.Triple{Head: p.Head, Relation: p.Relation, Tail: e}
				if ns.CorruptHead {
					cand = kg.Triple{Head: e, Relation: p.Relation, Tail: p.Tail}
				}
				if s.cfg.Filter.Contains(cand) {
					return true
				}
			}
			return false
		}
		for len(ns.Entities) < s.cfg.NegPerPos {
			e := s.drawEntity()
			if collides(e) {
				for tries := 0; tries < 8; tries++ {
					if e = s.drawEntity(); !collides(e) {
						break
					}
				}
			}
			ns.Entities = append(ns.Entities, e)
		}
		for i := start; i < end; i++ {
			b.Neg[i] = ns
		}
	}
	return b
}

func TestStampFilterMatchesPerSharerLookup(t *testing.T) {
	// A dense graph with self-loops and duplicate triples: a chunk's eight
	// sharers know about a quarter of the entities, so draws are accepted,
	// re-drawn and given up on alike.
	rng := rand.New(rand.NewSource(8))
	const ne = 100
	triples := make([]kg.Triple, 1500)
	for i := range triples {
		triples[i] = kg.Triple{Head: kg.EntityID(rng.Intn(ne)), Relation: kg.RelationID(rng.Intn(4)), Tail: kg.EntityID(rng.Intn(ne))}
	}
	triples = append(triples, triples[:100]...)
	g := kg.MustNewGraph("dense", ne, 5, triples)
	filter := kg.NewTripleSet(triples)
	weights := make([]float64, ne)
	for i := range weights {
		weights[i] = float64(1 + i%7)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		wrap bool
	}{
		{"chunked", Config{BatchSize: 32, NegPerPos: 32, ChunkSize: 8}, false},
		{"chunked-wrap", Config{BatchSize: 32, NegPerPos: 32, ChunkSize: 8}, true},
		{"independent", Config{BatchSize: 16, NegPerPos: 4, ChunkSize: 1}, false},
		{"weighted-ragged", Config{BatchSize: 50, NegPerPos: 8, ChunkSize: 16, NegativeWeights: weights}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.NumEntity, cfg.Filter = ne, filter
			got, ref := newSampler(t, cfg, g, 77), newSampler(t, cfg, g, 77)
			for it := 0; it < 2000; it++ {
				if tc.wrap && it == 1 {
					// The first batch's chunks left generations 1 to 4 in
					// the stamp; the next chunk wraps and they come round
					// again.
					got.gen = math.MaxUint32
				}
				if a, b := got.Next(), refNext(ref); !reflect.DeepEqual(a, b) {
					t.Fatalf("batch %d differs from the per-sharer lookup:\n%v\n%v", it, a, b)
				}
			}
		})
	}
}
