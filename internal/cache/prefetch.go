// Package cache implements HET-KG's hot-embedding cache (§IV of the paper):
// the prefetching pass (Algorithm 1) that looks ahead at upcoming
// mini-batches, the filtering pass (Algorithm 2) that selects the top-k
// hottest entity and relation embeddings under a node-heterogeneity quota,
// the CPS/DPS construction strategies, the bounded-staleness synchronization
// of cached values with the parameter server (Algorithms 3/4), and the
// simple caching baselines (FIFO, LRU, LFU) of Table VI.
package cache

import (
	"fmt"
	"sort"

	"hetkg/internal/kg"
	"hetkg/internal/ps"
	"hetkg/internal/sampler"
)

// Prefetched is the output of Algorithm 1: the materialized sample list L_s
// for the next D iterations plus the de-duplicated access census over the
// entities and relations they touch (L_er with multiplicities).
type Prefetched struct {
	// Batches are the exact mini-batches the trainer will replay, so
	// prefetching never desynchronizes the cache contents from the data.
	Batches []*sampler.Batch
	// EntityFreq and RelationFreq count accesses per id across Batches.
	EntityFreq   map[kg.EntityID]int
	RelationFreq map[kg.RelationID]int
}

// Prefetch runs the sampler d iterations ahead (Algorithm 1). The sampler's
// state advances, so the caller must train on the returned Batches rather
// than drawing fresh ones.
func Prefetch(s *sampler.Sampler, d int) *Prefetched {
	p := &Prefetched{
		Batches:      make([]*sampler.Batch, 0, d),
		EntityFreq:   make(map[kg.EntityID]int),
		RelationFreq: make(map[kg.RelationID]int),
	}
	for j := 0; j < d; j++ {
		b := s.Next()
		p.Batches = append(p.Batches, b)
		for i, pos := range b.Pos {
			p.EntityFreq[pos.Head]++
			p.EntityFreq[pos.Tail]++
			p.RelationFreq[pos.Relation]++
			// Negative accesses hit the shared chunk entities; count them
			// per reference (each use is one embedding read).
			for _, e := range b.Neg[i].Entities {
				p.EntityFreq[e]++
			}
		}
	}
	return p
}

// FilterConfig parameterizes Algorithm 2.
type FilterConfig struct {
	// Capacity is k, the number of rows the hot-embedding table holds.
	Capacity int
	// EntityFraction fixes the share of slots reserved for entities when
	// Heterogeneity is on (the paper's default is 0.25: 25% entities, 75%
	// relations, §VI-D.3).
	EntityFraction float64
	// Heterogeneity enables the node-heterogeneity quota. When off
	// (HET-KG-N in Table VII) entities and relations compete in a single
	// frequency-ordered pool.
	Heterogeneity bool
}

// Validate reports whether the configuration is usable.
func (c FilterConfig) Validate() error {
	if c.Capacity < 0 {
		return fmt.Errorf("cache: negative capacity %d", c.Capacity)
	}
	if c.EntityFraction < 0 || c.EntityFraction > 1 {
		return fmt.Errorf("cache: EntityFraction %v outside [0,1]", c.EntityFraction)
	}
	return nil
}

// rankedKey pairs a key with its observed frequency for sorting.
type rankedKey struct {
	key  ps.Key
	freq int
}

// Filter implements Algorithm 2: select the top-Capacity hottest ids from
// the prefetch census, honoring the heterogeneity quota. Ties break on key
// order for determinism. The result is the hot-embedding identifier table.
func Filter(p *Prefetched, cfg FilterConfig) ([]ps.Key, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ents := make([]rankedKey, 0, len(p.EntityFreq))
	for e, f := range p.EntityFreq {
		ents = append(ents, rankedKey{ps.EntityKey(e), f})
	}
	rels := make([]rankedKey, 0, len(p.RelationFreq))
	for r, f := range p.RelationFreq {
		rels = append(rels, rankedKey{ps.RelationKey(r), f})
	}
	byHotness := func(s []rankedKey) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].freq != s[j].freq {
				return s[i].freq > s[j].freq
			}
			return s[i].key < s[j].key
		})
	}
	byHotness(ents)
	byHotness(rels)

	if !cfg.Heterogeneity {
		all := append(ents, rels...)
		byHotness(all)
		return takeKeys(all, cfg.Capacity), nil
	}
	entSlots := int(float64(cfg.Capacity) * cfg.EntityFraction)
	relSlots := cfg.Capacity - entSlots
	// Fill shortfalls from the other pool so capacity is never wasted on a
	// dataset with few relations (WN18 has 18).
	if len(rels) < relSlots {
		entSlots += relSlots - len(rels)
		relSlots = len(rels)
	}
	if len(ents) < entSlots {
		relSlots += entSlots - len(ents)
		entSlots = len(ents)
		if relSlots > len(rels) {
			relSlots = len(rels)
		}
	}
	out := takeKeys(ents, entSlots)
	out = append(out, takeKeys(rels, relSlots)...)
	return out, nil
}

func takeKeys(s []rankedKey, n int) []ps.Key {
	if n > len(s) {
		n = len(s)
	}
	out := make([]ps.Key, n)
	for i := 0; i < n; i++ {
		out[i] = s[i].key
	}
	return out
}
