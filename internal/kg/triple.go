// Package kg defines the knowledge-graph representation shared by the whole
// system: triples, the Graph container with adjacency and degree statistics,
// dataset splits, and TSV import/export.
//
// A knowledge graph is G = {(h, r, t) | h, t ∈ E, r ∈ R}. Entities and
// relations are identified by dense int32 ids so embedding tables can be
// plain dense matrices indexed by id.
package kg

import (
	"fmt"
	"slices"
)

// EntityID identifies an entity (a vertex of the knowledge graph).
type EntityID int32

// RelationID identifies a relation (an edge label).
type RelationID int32

// Triple is one (head, relation, tail) fact.
type Triple struct {
	Head     EntityID
	Relation RelationID
	Tail     EntityID
}

// String renders the triple as "(h, r, t)".
func (t Triple) String() string {
	return fmt.Sprintf("(%d, %d, %d)", t.Head, t.Relation, t.Tail)
}

// TripleSet is an exact, immutable index over a set of triples, read by the
// filtered link-prediction protocol ("filtered MRR") to exclude known
// positives from a ranking and by the samplers to reject false negatives.
// Both only ever ask which entities complete a query: the heads of (r, t)
// or the tails of (h, r). So the set is two CSR indexes, one per question,
// each a triple list sorted by (relation, key, value) with duplicates
// dropped and one offset per relation; a query is a binary search in its
// relation's block. Entity and relation ids must be non-negative.
type TripleSet struct {
	heads adjIndex // key tail, value head: Heads(r, t)
	tails adjIndex // key head, value tail: Tails(h, r)
}

// adjIndex lists, for each (relation, key), the values it pairs with.
// Relation r's entries are keys[rel[r]:rel[r+1]] and the same span of vals,
// sorted by (key, value) with no pair twice.
type adjIndex struct {
	rel  []int
	keys []EntityID
	vals []EntityID
}

// NewTripleSet builds the set of all triples of the given slices. The build
// is a linear-time radix sort, O(triples + entities + relations), where
// entities and relations count up to the largest id present; it panics on
// a negative id.
func NewTripleSet(lists ...[]Triple) *TripleSet {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	all := make([]Triple, 0, n)
	maxE, maxR := EntityID(-1), RelationID(-1)
	for _, l := range lists {
		for _, t := range l {
			if t.Head < 0 || t.Tail < 0 || t.Relation < 0 {
				panic(fmt.Sprintf("kg: NewTripleSet: negative id in %v", t))
			}
			maxE = max(maxE, t.Head, t.Tail)
			maxR = max(maxR, t.Relation)
		}
		all = append(all, l...)
	}
	if n == 0 {
		return &TripleSet{}
	}
	buf := make([]Triple, n)
	count := make([]int, max(int(maxE), int(maxR))+1)
	ents, rels := count[:maxE+1], count[:maxR+1]
	return &TripleSet{
		heads: newAdjIndex(all, buf, ents, rels, byTail, byHead),
		tails: newAdjIndex(all, buf, ents, rels, byHead, byTail),
	}
}

// Which field of a triple a counting-sort pass keys on.
const (
	byHead = iota
	byRelation
	byTail
)

// field returns t's id in field f.
func field(t Triple, f int) int {
	switch f {
	case byHead:
		return int(t.Head)
	case byRelation:
		return int(t.Relation)
	}
	return int(t.Tail)
}

// countingSort stably sorts src into dst by field f, whose values lie in
// [0, len(count)).
func countingSort(dst, src []Triple, count []int, f int) {
	clear(count)
	for _, t := range src {
		count[field(t, f)]++
	}
	sum := 0
	for i, c := range count {
		count[i], sum = sum, sum+c
	}
	for _, t := range src {
		k := field(t, f)
		dst[count[k]] = t
		count[k]++
	}
}

// newAdjIndex sorts all by (relation, key, value) — three stable counting
// sorts, least significant field first, ping-ponging through buf — and
// keeps each distinct triple once. all's order is lost.
func newAdjIndex(all, buf []Triple, ents, rels []int, key, value int) adjIndex {
	countingSort(buf, all, ents, value)
	countingSort(all, buf, ents, key)
	countingSort(buf, all, rels, byRelation)
	x := adjIndex{
		rel:  make([]int, len(rels)+1),
		keys: make([]EntityID, 0, len(buf)),
		vals: make([]EntityID, 0, len(buf)),
	}
	for i, t := range buf {
		if i > 0 && t == buf[i-1] {
			continue
		}
		x.rel[t.Relation+1]++
		x.keys = append(x.keys, EntityID(field(t, key)))
		x.vals = append(x.vals, EntityID(field(t, value)))
	}
	for r := range rels {
		x.rel[r+1] += x.rel[r]
	}
	return x
}

// list returns the sorted values paired with (r, k); nil when there are
// none, including for ids the set has never seen.
func (x *adjIndex) list(r RelationID, k EntityID) []EntityID {
	if r < 0 || int(r) >= len(x.rel)-1 {
		return nil
	}
	lo, hi := x.rel[r], x.rel[r+1]
	keys := x.keys[lo:hi]
	i, found := slices.BinarySearch(keys, k)
	if !found {
		return nil
	}
	// The end of k's run, galloping from i so that the short runs most
	// queries have cost a probe or two: keys[j-1] == k throughout, and the
	// run ends in [j, n].
	j, n := i+1, i+1
	for step := 1; n < len(keys) && keys[n] == k; step *= 2 {
		j, n = n+1, n+step
	}
	n = min(n, len(keys))
	for j < n {
		m := int(uint(j+n) >> 1)
		if keys[m] == k {
			j = m + 1
		} else {
			n = m
		}
	}
	return x.vals[lo+i : lo+j : lo+j]
}

// Heads returns the sorted heads h with (h, r, t) in the set. The slice
// aliases the index and must not be modified.
func (s *TripleSet) Heads(r RelationID, t EntityID) []EntityID { return s.heads.list(r, t) }

// Tails returns the sorted tails t with (h, r, t) in the set. The slice
// aliases the index and must not be modified.
func (s *TripleSet) Tails(h EntityID, r RelationID) []EntityID { return s.tails.list(r, h) }

// Contains reports whether t is in the set.
func (s *TripleSet) Contains(t Triple) bool {
	_, ok := slices.BinarySearch(s.Tails(t.Head, t.Relation), t.Tail)
	return ok
}

// Len returns the number of distinct triples in the set.
func (s *TripleSet) Len() int { return len(s.tails.vals) }
