package train

import (
	"math/rand"
	"slices"
	"testing"

	"hetkg/internal/dataset"
	"hetkg/internal/kg"
	"hetkg/internal/ps"
	"hetkg/internal/sampler"
)

// TestSlotTableMatchesBatch compiles batches of several shapes into one
// reused table and checks it against the batch: the keys are the batch's
// distinct ids (DistinctIDs), sorted, and every positive's head, relation,
// tail and negative slot names the id the batch holds there, each slot
// with its own slab row of its kind's width.
func TestSlotTableMatchesBatch(t *testing.T) {
	g := dataset.FB15kLike(dataset.Tiny, 1)
	const entW, relW = 6, 10
	var tbl slotTable
	for _, c := range []struct{ batch, negs, chunk int }{
		{64, 8, 8}, {7, 3, 1}, {128, 32, 8}, {1, 1, 1}, {33, 5, 4},
	} {
		smp, err := sampler.New(sampler.Config{
			BatchSize: c.batch, NegPerPos: c.negs, ChunkSize: c.chunk, NumEntity: g.NumEntity,
		}, g, rand.New(rand.NewSource(int64(c.batch))))
		if err != nil {
			t.Fatal(err)
		}
		for it := 0; it < 3; it++ {
			b := smp.Next()
			tbl.compile(b, entW, relW)
			checkSlotTable(t, &tbl, b, entW, relW)
		}
	}
}

func checkSlotTable(t *testing.T, tbl *slotTable, b *sampler.Batch, entW, relW int) {
	t.Helper()
	ents, rels := b.DistinctIDs()
	var want []ps.Key
	for _, e := range ents {
		want = append(want, ps.EntityKey(e))
	}
	for _, r := range rels {
		want = append(want, ps.RelationKey(r))
	}
	slices.Sort(want)
	if !slices.Equal(tbl.keys, want) {
		t.Fatalf("keys = %v, want the batch's distinct keys sorted %v", tbl.keys, want)
	}
	if len(tbl.rows) != len(tbl.keys) {
		t.Fatalf("%d rows for %d slots", len(tbl.rows), len(tbl.keys))
	}
	for s, k := range tbl.keys {
		w := entW
		if k.IsRelation() {
			w = relW
		}
		if len(tbl.rows[s]) != w || cap(tbl.rows[s]) != w {
			t.Fatalf("slot %d (%v) row has len %d cap %d, want %d", s, k, len(tbl.rows[s]), cap(tbl.rows[s]), w)
		}
		if s > 0 && &tbl.rows[s][0] == &tbl.rows[s-1][0] {
			t.Fatalf("slots %d and %d share a row", s-1, s)
		}
		if tbl.slot(k) != s {
			t.Fatalf("slot(%v) = %d, want %d", k, tbl.slot(k), s)
		}
	}
	for i, p := range b.Pos {
		got := [3]ps.Key{tbl.keys[tbl.pos[i][0]], tbl.keys[tbl.pos[i][1]], tbl.keys[tbl.pos[i][2]]}
		if w := [3]ps.Key{ps.EntityKey(p.Head), ps.RelationKey(p.Relation), ps.EntityKey(p.Tail)}; got != w {
			t.Fatalf("positive %d slots name %v, want %v", i, got, w)
		}
		negs := tbl.ents[tbl.negs[i][0]:tbl.negs[i][1]]
		if len(negs) != len(b.Neg[i].Entities) {
			t.Fatalf("positive %d has %d negative slots, want %d", i, len(negs), len(b.Neg[i].Entities))
		}
		for j, s := range negs {
			if k := tbl.keys[s]; k != ps.EntityKey(b.Neg[i].Entities[j]) {
				t.Fatalf("positive %d negative %d names %v, want %v", i, j, k, ps.EntityKey(b.Neg[i].Entities[j]))
			}
		}
	}
}

// TestSlotTableSharedIDs compiles a batch whose negatives repeat within a
// chunk and name its positives' own entities: every occurrence of one id
// gets the one slot, so gradients for it accumulate in one row.
func TestSlotTableSharedIDs(t *testing.T) {
	chunk := &sampler.NegativeSample{Entities: []kg.EntityID{4, 1, 4, 9}}
	b := &sampler.Batch{
		Pos: []kg.Triple{{Head: 1, Relation: 2, Tail: 4}, {Head: 9, Relation: 2, Tail: 1}},
		Neg: []*sampler.NegativeSample{chunk, chunk},
	}
	var tbl slotTable
	tbl.compile(b, 2, 3)
	checkSlotTable(t, &tbl, b, 2, 3)
	if want := []ps.Key{ps.EntityKey(1), ps.EntityKey(4), ps.EntityKey(9), ps.RelationKey(2)}; !slices.Equal(tbl.keys, want) {
		t.Fatalf("keys = %v, want %v", tbl.keys, want)
	}
	if tbl.negs[0] != tbl.negs[1] {
		t.Errorf("positives sharing a chunk got ranges %v and %v", tbl.negs[0], tbl.negs[1])
	}
	if want := []int32{1, 0, 1, 2}; !slices.Equal(tbl.ents[tbl.negs[0][0]:tbl.negs[0][1]], want) {
		t.Errorf("chunk slots = %v, want %v", tbl.ents[tbl.negs[0][0]:tbl.negs[0][1]], want)
	}
}
