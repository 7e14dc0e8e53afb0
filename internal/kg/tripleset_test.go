package kg

import (
	"math/rand"
	"slices"
	"testing"
)

// checkTripleSet holds NewTripleSet(lists...) to a plain map built from the
// same triples: Len, and Contains, Heads and Tails for every query (h, r, t),
// ids out of range and negative included.
func checkTripleSet(t testing.TB, lists [][]Triple, queries []Triple) {
	t.Helper()
	set := NewTripleSet(lists...)
	member := map[Triple]bool{}
	heads := map[[2]int32][]EntityID{} // (r, t) → heads
	tails := map[[2]int32][]EntityID{} // (h, r) → tails
	for _, l := range lists {
		for _, tr := range l {
			if member[tr] {
				continue
			}
			member[tr] = true
			ht := [2]int32{int32(tr.Relation), int32(tr.Tail)}
			heads[ht] = append(heads[ht], tr.Head)
			hr := [2]int32{int32(tr.Head), int32(tr.Relation)}
			tails[hr] = append(tails[hr], tr.Tail)
		}
	}
	for _, l := range heads {
		slices.Sort(l)
	}
	for _, l := range tails {
		slices.Sort(l)
	}
	if set.Len() != len(member) {
		t.Fatalf("Len = %d, want %d distinct triples", set.Len(), len(member))
	}
	for _, q := range queries {
		if got := set.Contains(q); got != member[q] {
			t.Fatalf("Contains(%v) = %v, want %v", q, got, member[q])
		}
		if got, want := set.Heads(q.Relation, q.Tail), heads[[2]int32{int32(q.Relation), int32(q.Tail)}]; !slices.Equal(got, want) {
			t.Fatalf("Heads(%d, %d) = %v, want %v", q.Relation, q.Tail, got, want)
		}
		if got, want := set.Tails(q.Head, q.Relation), tails[[2]int32{int32(q.Head), int32(q.Relation)}]; !slices.Equal(got, want) {
			t.Fatalf("Tails(%d, %d) = %v, want %v", q.Head, q.Relation, got, want)
		}
	}
}

func TestTripleSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		ne, nr := 1+rng.Intn(12), 1+rng.Intn(5)
		// Triples use only some relations, so others have empty blocks,
		// and a small id space makes self-loops and duplicates common.
		used := rng.Perm(nr)[:1+rng.Intn(nr)]
		var lists [][]Triple
		for l := rng.Intn(4); l >= 0; l-- {
			list := make([]Triple, rng.Intn(40))
			for i := range list {
				list[i] = Triple{EntityID(rng.Intn(ne)), RelationID(used[rng.Intn(len(used))]), EntityID(rng.Intn(ne))}
			}
			lists = append(lists, list)
		}
		var queries []Triple
		for h := -2; h < ne+2; h++ {
			for r := -2; r < nr+2; r++ {
				for tl := -2; tl < ne+2; tl++ {
					queries = append(queries, Triple{EntityID(h), RelationID(r), EntityID(tl)})
				}
			}
		}
		checkTripleSet(t, lists, queries)
	}
	checkTripleSet(t, nil, []Triple{{0, 0, 0}, {-1, -1, -1}})
}

// FuzzTripleSet decodes a triple list and a query list from the input and
// checks the set against a map. Byte 0 is the triple count; each triple is
// three bytes (head, relation mod 8, tail). The remaining bytes are queries,
// three signed bytes each, so they reach negative and unseen ids.
func FuzzTripleSet(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 0, 1, 1, 0, 2, 0, 0, 1, 0, 0, 1, 0xff, 0, 2, 1, 0, 1})
	f.Add([]byte{2, 5, 3, 5, 5, 3, 5, 5, 3, 5, 4, 3, 5, 5, 2, 5, 0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := min(int(data[0]), (len(data)-1)/3)
		data = data[1:]
		triples := make([]Triple, n)
		for i := range triples {
			triples[i] = Triple{EntityID(data[0]), RelationID(data[1] % 8), EntityID(data[2])}
			data = data[3:]
		}
		var queries []Triple
		for ; len(data) >= 3; data = data[3:] {
			queries = append(queries, Triple{EntityID(int8(data[0])), RelationID(int8(data[1])), EntityID(int8(data[2]))})
		}
		checkTripleSet(t, [][]Triple{triples[:n/2], triples[n/2:]}, append(queries, triples...))
	})
}
