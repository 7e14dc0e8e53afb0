// Package sampler produces the positive and negative training samples for
// mini-batch KGE training (§III-A, §V of the HET-KG paper).
//
// Positive triples are drawn uniformly from a worker's partitioned subgraph.
// Negative triples corrupt the head or the tail of a positive with a random
// entity. Two corruption regimes are provided:
//
//   - Independent: each positive is corrupted NegPerPos times with fresh
//     entities — complexity O(b_p·d·(b_n+1)) in pulled embedding rows.
//   - Chunked (the PBG/DGL-KE batched strategy the paper adopts in §V):
//     the mini-batch is divided into chunks of ChunkSize positives and each
//     chunk shares one set of NegPerPos corrupt entities, reducing the
//     distinct rows pulled to O(b_p + b_p·k/b_c).
package sampler

import (
	"fmt"
	"math/rand"

	"hetkg/internal/kg"
)

// NegativeSample is one chunk's shared corruption set.
type NegativeSample struct {
	// Entities are the corrupt replacement entities shared by the chunk.
	Entities []kg.EntityID
	// CorruptHead selects which slot the entities replace: head if true,
	// tail otherwise.
	CorruptHead bool
}

// Batch is one training mini-batch: positives plus, for each positive, a
// pointer to its (possibly shared) negative sample.
type Batch struct {
	Pos []kg.Triple
	// Neg[i] holds the corruption set for Pos[i]. With chunked sampling
	// consecutive positives share the same *NegativeSample.
	Neg []*NegativeSample
}

// NumNegatives returns the total number of negative triples the batch
// expands to (positives × negatives each).
func (b *Batch) NumNegatives() int {
	n := 0
	for _, ns := range b.Neg {
		n += len(ns.Entities)
	}
	return n
}

// DistinctIDs de-duplicates the entity and relation ids the batch touches —
// exactly the dedup step of the paper's prefetch Algorithm 1 (lines 7–9) and
// the set of embedding rows a worker must obtain to process the batch.
func (b *Batch) DistinctIDs() (entities []kg.EntityID, relations []kg.RelationID) {
	seenE := make(map[kg.EntityID]struct{}, 3*len(b.Pos))
	seenR := make(map[kg.RelationID]struct{}, 8)
	addE := func(e kg.EntityID) {
		if _, ok := seenE[e]; !ok {
			seenE[e] = struct{}{}
			entities = append(entities, e)
		}
	}
	for i, p := range b.Pos {
		addE(p.Head)
		addE(p.Tail)
		if _, ok := seenR[p.Relation]; !ok {
			seenR[p.Relation] = struct{}{}
			relations = append(relations, p.Relation)
		}
		for _, e := range b.Neg[i].Entities {
			addE(e)
		}
	}
	return entities, relations
}

// Config parameterizes a Sampler.
type Config struct {
	// BatchSize is b_p, the number of positive triples per mini-batch.
	BatchSize int
	// NegPerPos is b_n, negatives generated per positive.
	NegPerPos int
	// ChunkSize is b_c; positives in the same chunk share corrupt entities.
	// ChunkSize 0 or 1 selects independent corruption.
	ChunkSize int
	// NumEntity is the corruption universe (entities are drawn uniformly).
	NumEntity int
	// Filter, when non-nil, rejects corrupted triples that are actually
	// positives (false negatives). A bounded number of re-draws is
	// attempted; persistent collisions are kept, matching standard
	// implementations. With a filter the sampler holds 4 bytes per entity
	// (the per-chunk stamp).
	Filter *kg.TripleSet
	// NegativeWeights, when non-nil, draws corrupting entities from this
	// unnormalized distribution (length NumEntity) instead of uniformly —
	// e.g. DegreeWeights(g.EntityDegrees()) for word2vec-style deg^0.75
	// corruption.
	NegativeWeights []float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.BatchSize < 1:
		return fmt.Errorf("sampler: BatchSize %d < 1", c.BatchSize)
	case c.NegPerPos < 0:
		return fmt.Errorf("sampler: NegPerPos %d < 0", c.NegPerPos)
	case c.NumEntity < 2:
		return fmt.Errorf("sampler: NumEntity %d < 2", c.NumEntity)
	case c.ChunkSize < 0:
		return fmt.Errorf("sampler: ChunkSize %d < 0", c.ChunkSize)
	}
	return nil
}

// Sampler draws mini-batches from a fixed triple list. It is not safe for
// concurrent use; each worker owns one Sampler seeded independently.
type Sampler struct {
	cfg     Config
	triples []kg.Triple
	rng     *rand.Rand
	// negDist draws weighted corrupting entities (nil = uniform).
	negDist *AliasTable
	// cursor implements sampling-without-replacement per epoch: a shuffled
	// index walk, reshuffled when exhausted, so every triple is visited
	// once per epoch as in standard KGE training.
	perm   []int32
	cursor int
	// stamp is the filter for the chunk being corrupted: stamp[e] == gen
	// iff e completes some sharer's corrupted side to a known triple
	// (nil without a Filter).
	stamp []uint32
	gen   uint32
}

// New builds a Sampler over the subgraph's triples.
func New(cfg Config, g *kg.Graph, rng *rand.Rand) (*Sampler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g.NumTriples() == 0 {
		return nil, fmt.Errorf("sampler: graph %q has no triples", g.Name)
	}
	s := &Sampler{cfg: cfg, triples: g.Triples, rng: rng}
	if cfg.Filter != nil {
		s.stamp = make([]uint32, cfg.NumEntity)
	}
	if cfg.NegativeWeights != nil {
		if len(cfg.NegativeWeights) != cfg.NumEntity {
			return nil, fmt.Errorf("sampler: %d negative weights for %d entities",
				len(cfg.NegativeWeights), cfg.NumEntity)
		}
		var err error
		s.negDist, err = NewAliasTable(cfg.NegativeWeights)
		if err != nil {
			return nil, err
		}
	}
	s.reshuffle()
	return s, nil
}

func (s *Sampler) reshuffle() {
	if s.perm == nil {
		s.perm = make([]int32, len(s.triples))
		for i := range s.perm {
			s.perm[i] = int32(i)
		}
	}
	s.rng.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
	s.cursor = 0
}

// IterationsPerEpoch returns how many batches constitute one pass over the
// subgraph.
func (s *Sampler) IterationsPerEpoch() int {
	n := (len(s.triples) + s.cfg.BatchSize - 1) / s.cfg.BatchSize
	if n < 1 {
		n = 1
	}
	return n
}

// Next produces the next mini-batch (positives without replacement within an
// epoch, negatives freshly corrupted).
func (s *Sampler) Next() *Batch {
	bp := s.cfg.BatchSize
	if bp > len(s.triples) {
		bp = len(s.triples)
	}
	pos := make([]kg.Triple, bp)
	for i := 0; i < bp; i++ {
		if s.cursor >= len(s.perm) {
			s.reshuffle()
		}
		pos[i] = s.triples[s.perm[s.cursor]]
		s.cursor++
	}
	b := &Batch{Pos: pos, Neg: make([]*NegativeSample, bp)}
	chunk := s.cfg.ChunkSize
	if chunk <= 1 { // independent corruption
		for i := range pos {
			b.Neg[i] = s.corrupt(pos[i : i+1])
		}
		return b
	}
	for start := 0; start < bp; start += chunk {
		end := start + chunk
		if end > bp {
			end = bp
		}
		ns := s.corrupt(pos[start:end])
		for i := start; i < end; i++ {
			b.Neg[i] = ns
		}
	}
	return b
}

// corrupt draws one NegativeSample for the given positives, filtering false
// negatives against every positive that will share it.
func (s *Sampler) corrupt(sharedBy []kg.Triple) *NegativeSample {
	ns := &NegativeSample{
		Entities:    make([]kg.EntityID, 0, s.cfg.NegPerPos),
		CorruptHead: s.rng.Intn(2) == 0,
	}
	if s.stamp != nil {
		s.mark(ns.CorruptHead, sharedBy)
	}
	for len(ns.Entities) < s.cfg.NegPerPos {
		e := s.drawEntity()
		if s.stamp != nil && s.stamp[e] == s.gen {
			// Bounded re-draw: try a few more times, then accept. Standard
			// implementations tolerate rare false negatives rather than
			// loop forever on tiny graphs.
			for tries := 0; tries < 8; tries++ {
				e = s.drawEntity()
				if s.stamp[e] != s.gen {
					break
				}
			}
		}
		ns.Entities = append(ns.Entities, e)
	}
	return ns
}

// drawEntity samples one corrupting entity (weighted when configured).
func (s *Sampler) drawEntity() kg.EntityID {
	if s.negDist != nil {
		return kg.EntityID(s.negDist.Sample(s.rng))
	}
	return kg.EntityID(s.rng.Intn(s.cfg.NumEntity))
}

// mark stamps a new generation on every entity that completes one of the
// sharers' corrupted side to a triple of the filter: the union of their
// Heads(r, t) lists when corrupting heads, of their Tails(h, r) lists
// otherwise. A drawn entity is then a false negative for some sharer iff
// its stamp is the current generation.
func (s *Sampler) mark(corruptHead bool, sharedBy []kg.Triple) {
	s.gen++
	if s.gen == 0 { // wrapped: a stale stamp could equal a new generation
		clear(s.stamp)
		s.gen = 1
	}
	for _, p := range sharedBy {
		var known []kg.EntityID
		if corruptHead {
			known = s.cfg.Filter.Heads(p.Relation, p.Tail)
		} else {
			known = s.cfg.Filter.Tails(p.Head, p.Relation)
		}
		for _, e := range known {
			if uint(e) < uint(len(s.stamp)) { // never drawn, nothing to stamp
				s.stamp[e] = s.gen
			}
		}
	}
}
