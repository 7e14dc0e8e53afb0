package kg

import (
	"fmt"
	"sort"
)

// Graph is an immutable knowledge graph: a triple list plus the entity and
// relation universe sizes. Adjacency (CSR) and degree tables are built
// lazily because not every consumer needs them.
type Graph struct {
	Name       string
	NumEntity  int
	NumRel     int
	Triples    []Triple
	adjOnce    bool
	adjOffsets []int32 // CSR offsets into adjTriples, per entity (undirected incidence)
	adjTriples []int32 // indices into Triples
}

// NewGraph validates the triple list against the declared universe sizes and
// returns the graph. Triples referencing out-of-range ids are an error: they
// would index embedding tables out of bounds much later and much less
// legibly.
func NewGraph(name string, numEntity, numRel int, triples []Triple) (*Graph, error) {
	if numEntity <= 0 || numRel <= 0 {
		return nil, fmt.Errorf("kg: graph %q: non-positive universe (%d entities, %d relations)", name, numEntity, numRel)
	}
	for i, t := range triples {
		if t.Head < 0 || int(t.Head) >= numEntity || t.Tail < 0 || int(t.Tail) >= numEntity {
			return nil, fmt.Errorf("kg: graph %q: triple %d %v has entity out of range [0,%d)", name, i, t, numEntity)
		}
		if t.Relation < 0 || int(t.Relation) >= numRel {
			return nil, fmt.Errorf("kg: graph %q: triple %d %v has relation out of range [0,%d)", name, i, t, numRel)
		}
	}
	return &Graph{Name: name, NumEntity: numEntity, NumRel: numRel, Triples: triples}, nil
}

// MustNewGraph is NewGraph that panics on error, for tests and generators
// whose inputs are correct by construction.
func MustNewGraph(name string, numEntity, numRel int, triples []Triple) *Graph {
	g, err := NewGraph(name, numEntity, numRel, triples)
	if err != nil {
		panic(err)
	}
	return g
}

// NumTriples returns the number of triples (edges).
func (g *Graph) NumTriples() int { return len(g.Triples) }

// buildAdjacency constructs the undirected incidence CSR: for each entity,
// the indices of all triples in which it appears as head or tail.
func (g *Graph) buildAdjacency() {
	if g.adjOnce {
		return
	}
	deg := make([]int32, g.NumEntity+1)
	for _, t := range g.Triples {
		deg[t.Head+1]++
		if t.Tail != t.Head {
			deg[t.Tail+1]++
		}
	}
	for i := 1; i <= g.NumEntity; i++ {
		deg[i] += deg[i-1]
	}
	g.adjOffsets = deg
	g.adjTriples = make([]int32, deg[g.NumEntity])
	cursor := make([]int32, g.NumEntity)
	for i, t := range g.Triples {
		h := t.Head
		g.adjTriples[g.adjOffsets[h]+cursor[h]] = int32(i)
		cursor[h]++
		if t.Tail != t.Head {
			tl := t.Tail
			g.adjTriples[g.adjOffsets[tl]+cursor[tl]] = int32(i)
			cursor[tl]++
		}
	}
	g.adjOnce = true
}

// IncidentTriples returns the indices (into Triples) of all triples incident
// to entity e. The returned slice aliases internal storage; callers must not
// modify it.
func (g *Graph) IncidentTriples(e EntityID) []int32 {
	g.buildAdjacency()
	return g.adjTriples[g.adjOffsets[e]:g.adjOffsets[e+1]]
}

// Degree returns the number of triples incident to entity e.
func (g *Graph) Degree(e EntityID) int {
	g.buildAdjacency()
	return int(g.adjOffsets[e+1] - g.adjOffsets[e])
}

// EntityDegrees returns the degree of every entity.
func (g *Graph) EntityDegrees() []int {
	g.buildAdjacency()
	out := make([]int, g.NumEntity)
	for i := range out {
		out[i] = int(g.adjOffsets[i+1] - g.adjOffsets[i])
	}
	return out
}

// RelationCounts returns, for every relation, the number of triples using it.
func (g *Graph) RelationCounts() []int {
	out := make([]int, g.NumRel)
	for _, t := range g.Triples {
		out[t.Relation]++
	}
	return out
}

// Subgraph returns a new Graph over the same entity/relation universe
// containing only the triples at the given indices. It is how partitions
// materialize per-worker subgraphs without re-numbering ids (ids must stay
// global so embedding keys agree across workers).
func (g *Graph) Subgraph(name string, idx []int32) *Graph {
	ts := make([]Triple, len(idx))
	for i, j := range idx {
		ts[i] = g.Triples[j]
	}
	return &Graph{Name: name, NumEntity: g.NumEntity, NumRel: g.NumRel, Triples: ts}
}

// Stats summarizes the structural properties that drive HET-KG's cache
// design: skew of entity degrees and concentration of relation usage.
type Stats struct {
	NumEntity, NumRel, NumTriples int
	MaxEntityDegree               int
	MeanEntityDegree              float64
	// TopEntityShare[p] is the fraction of all entity slots (2 per triple)
	// occupied by the top p-fraction of entities by degree. The paper's
	// FB15k observation: top 1% of entities ≈ 6% of usage.
	Top1PctEntityShare float64
	// Top1PctRelationShare is the fraction of triples using the top 1% of
	// relations (paper: ≈36% on FB15k).
	Top1PctRelationShare float64
}

// ComputeStats scans the graph once and derives Stats.
func (g *Graph) ComputeStats() Stats {
	s := Stats{NumEntity: g.NumEntity, NumRel: g.NumRel, NumTriples: len(g.Triples)}
	deg := g.EntityDegrees()
	total := 0
	for _, d := range deg {
		total += d
		if d > s.MaxEntityDegree {
			s.MaxEntityDegree = d
		}
	}
	if g.NumEntity > 0 {
		s.MeanEntityDegree = float64(total) / float64(g.NumEntity)
	}
	s.Top1PctEntityShare = topShare(deg, 0.01)
	s.Top1PctRelationShare = topShare(g.RelationCounts(), 0.01)
	return s
}

// topShare returns the fraction of sum(counts) held by the top frac of
// items when sorted by count descending. At least one item is always
// counted so tiny universes still produce a meaningful number.
func topShare(counts []int, frac float64) float64 {
	if len(counts) == 0 {
		return 0
	}
	sorted := make([]int, len(counts))
	copy(sorted, counts)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	k := int(float64(len(sorted)) * frac)
	if k < 1 {
		k = 1
	}
	total, top := 0, 0
	for i, c := range sorted {
		total += c
		if i < k {
			top += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}
