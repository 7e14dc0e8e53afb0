package kg

import (
	"fmt"
	"math/rand"
)

// Split is a train/validation/test partition of a graph's triples. All three
// share the parent graph's entity/relation universe.
type Split struct {
	Train *Graph
	Valid *Graph
	Test  *Graph
}

// SplitTriples shuffles the graph's triples with rng and divides them by the
// given fractions (validFrac and testFrac; the remainder trains). The paper
// uses the standard FB15k/WN18 splits and 90/5/5 on Freebase-86m.
func SplitTriples(g *Graph, rng *rand.Rand, validFrac, testFrac float64) (Split, error) {
	if validFrac < 0 || testFrac < 0 || validFrac+testFrac >= 1 {
		return Split{}, fmt.Errorf("kg: invalid split fractions valid=%v test=%v", validFrac, testFrac)
	}
	n := len(g.Triples)
	perm := rng.Perm(n)
	nValid := int(float64(n) * validFrac)
	nTest := int(float64(n) * testFrac)
	nTrain := n - nValid - nTest

	pick := func(name string, idx []int) *Graph {
		ts := make([]Triple, len(idx))
		for i, j := range idx {
			ts[i] = g.Triples[j]
		}
		return &Graph{Name: name, NumEntity: g.NumEntity, NumRel: g.NumRel, Triples: ts}
	}
	return Split{
		Train: pick(g.Name+"-train", perm[:nTrain]),
		Valid: pick(g.Name+"-valid", perm[nTrain:nTrain+nValid]),
		Test:  pick(g.Name+"-test", perm[nTrain+nValid:]),
	}, nil
}

// AllTriples returns a TripleSet over train+valid+test: the known positives
// filtered evaluation excludes from its rankings and the samplers keep out
// of their negatives.
func (s Split) AllTriples() *TripleSet {
	return NewTripleSet(s.Train.Triples, s.Valid.Triples, s.Test.Triples)
}
