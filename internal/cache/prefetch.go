// Package cache implements HET-KG's hot-embedding cache (§IV of the paper):
// the prefetching pass (Algorithm 1) that looks ahead at upcoming
// mini-batches, the filtering pass (Algorithm 2) that selects the top-k
// hottest entity and relation embeddings under a node-heterogeneity quota,
// the CPS/DPS construction strategies, the bounded-staleness synchronization
// of cached values with the parameter server (Algorithms 3/4), and the
// simple caching baselines (FIFO, LRU, LFU) of Table VI.
package cache

import (
	"cmp"
	"fmt"
	"slices"

	"hetkg/internal/kg"
	"hetkg/internal/ps"
	"hetkg/internal/sampler"
)

// Prefetched is the output of Algorithm 1: the materialized sample list L_s
// for the next D iterations plus the access census over the entities and
// relations they touch (L_er with multiplicities).
type Prefetched struct {
	// Batches are the exact mini-batches the trainer will replay, so
	// prefetching never desynchronizes the cache contents from the data.
	Batches []*sampler.Batch
	// EntityFreq and RelationFreq count accesses per id across Batches,
	// indexed by id; an id past the end, or counted 0, was not touched.
	EntityFreq   []int32
	RelationFreq []int32
}

// Prefetch runs the sampler d iterations ahead (Algorithm 1). The sampler's
// state advances, so the caller must train on the returned Batches rather
// than drawing fresh ones.
func Prefetch(s *sampler.Sampler, d int) *Prefetched {
	p := &Prefetched{Batches: make([]*sampler.Batch, 0, d)}
	for j := 0; j < d; j++ {
		b := s.Next()
		p.Batches = append(p.Batches, b)
		for i, pos := range b.Pos {
			p.EntityFreq = tally(p.EntityFreq, int(pos.Head))
			p.EntityFreq = tally(p.EntityFreq, int(pos.Tail))
			p.RelationFreq = tally(p.RelationFreq, int(pos.Relation))
			// Negative accesses hit the shared chunk entities; count them
			// per reference (each use is one embedding read).
			for _, e := range b.Neg[i].Entities {
				p.EntityFreq = tally(p.EntityFreq, int(e))
			}
		}
	}
	return p
}

// tally counts one access of id in c, growing c to hold it.
func tally(c []int32, id int) []int32 {
	if id >= len(c) {
		c = append(c, make([]int32, id+1-len(c))...)
	}
	c[id]++
	return c
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
	freq int32
}

// Filter implements Algorithm 2: select the top-Capacity hottest ids from
// the prefetch census, honoring the heterogeneity quota. Ties break on key
// order for determinism. The result is the hot-embedding identifier table.
func Filter(p *Prefetched, cfg FilterConfig) ([]ps.Key, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ents := ranked(p.EntityFreq, func(e int) ps.Key { return ps.EntityKey(kg.EntityID(e)) })
	rels := ranked(p.RelationFreq, func(r int) ps.Key { return ps.RelationKey(kg.RelationID(r)) })
	if !cfg.Heterogeneity {
		return takeKeys(byHotness(append(ents, rels...)), cfg.Capacity), nil
	}
	byHotness(ents)
	byHotness(rels)
	// Each pool fills the other's shortfall, so capacity is never wasted on
	// a dataset with few relations (WN18 has 18).
	entSlots := min(max(int(float64(cfg.Capacity)*cfg.EntityFraction), cfg.Capacity-len(rels)), len(ents))
	return append(takeKeys(ents, entSlots), takeKeys(rels, cfg.Capacity-entSlots)...), nil
}

// ranked lists every id counted in freq, in id order, as its key.
func ranked(freq []int32, key func(id int) ps.Key) []rankedKey {
	var s []rankedKey
	for id, f := range freq {
		if f > 0 {
			s = append(s, rankedKey{key(id), f})
		}
	}
	return s
}

// byHotness sorts s, which is in key order, by descending frequency. The
// sort is stable, so equally hot keys stay in key order.
func byHotness(s []rankedKey) []rankedKey {
	slices.SortStableFunc(s, func(a, b rankedKey) int { return cmp.Compare(b.freq, a.freq) })
	return s
}

// takeKeys returns the keys of s's first n entries, or of all of s.
func takeKeys(s []rankedKey, n int) []ps.Key {
	out := make([]ps.Key, min(n, len(s)))
	for i := range out {
		out[i] = s[i].key
	}
	return out
}
