package cache

import (
	"testing"
	"testing/quick"

	"hetkg/internal/kg"
	"hetkg/internal/ps"
)

// Filter invariants on arbitrary censuses: the selection never exceeds
// capacity, contains no duplicates, and only contains ids the census
// counted.
func TestFilterInvariants(t *testing.T) {
	f := func(entRaw, relRaw []uint8, capRaw uint8, fracRaw uint8, hetero bool) bool {
		p := &Prefetched{EntityFreq: make([]int32, 50), RelationFreq: make([]int32, 10)}
		for i, v := range entRaw {
			p.EntityFreq[i%50] += int32(v)
		}
		for i, v := range relRaw {
			p.RelationFreq[i%10] += int32(v)
		}
		cfg := FilterConfig{
			Capacity:       int(capRaw % 64),
			EntityFraction: float64(fracRaw%101) / 100,
			Heterogeneity:  hetero,
		}
		keys, err := Filter(p, cfg)
		if err != nil {
			return false
		}
		if len(keys) > cfg.Capacity {
			return false
		}
		seen := map[ps.Key]bool{}
		for _, k := range keys {
			if seen[k] {
				return false
			}
			seen[k] = true
			if k.IsRelation() {
				if p.RelationFreq[k.Relation()] == 0 {
					return false
				}
			} else {
				if p.EntityFreq[k.Entity()] == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Online policies never hold more than capacity keys, and replay hit
// ratios stay in [0, 1].
func TestPolicyInvariants(t *testing.T) {
	f := func(stream []uint8, capRaw uint8) bool {
		capacity := int(capRaw % 12)
		keys := make([]ps.Key, len(stream))
		for i, v := range stream {
			keys[i] = ps.EntityKey(kg.EntityID(v % 30))
		}
		for _, name := range []string{"fifo", "lru", "lfu"} {
			p, _ := NewPolicy(name, capacity)
			ratio := ReplayHitRatio(p, keys)
			if ratio < 0 || ratio > 1 {
				return false
			}
			if p.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// A fixed table selected with full knowledge of the stream's frequencies
// always beats (or ties) a uniformly random table of the same size.
func TestHotSelectionBeatsRandomSelection(t *testing.T) {
	f := func(streamRaw []uint8, capRaw uint8) bool {
		if len(streamRaw) < 20 {
			return true
		}
		capacity := 1 + int(capRaw%10)
		stream := make([]ps.Key, len(streamRaw))
		freq := map[ps.Key]int{}
		for i, v := range streamRaw {
			k := ps.EntityKey(kg.EntityID(v % 25))
			stream[i] = k
			freq[k]++
		}
		// Top-capacity by frequency.
		hot := map[ps.Key]struct{}{}
		for len(hot) < capacity {
			var best ps.Key
			bestF := -1
			for k, c := range freq {
				if _, used := hot[k]; used {
					continue
				}
				if c > bestF || (c == bestF && k < best) {
					best, bestF = k, c
				}
			}
			if bestF < 0 {
				break
			}
			hot[best] = struct{}{}
		}
		// "Random" table: first-capacity distinct keys of the reversed stream.
		rnd := map[ps.Key]struct{}{}
		for i := len(stream) - 1; i >= 0 && len(rnd) < capacity; i-- {
			rnd[stream[i]] = struct{}{}
		}
		return StaticHitRatio(hot, stream) >= StaticHitRatio(rnd, stream)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
