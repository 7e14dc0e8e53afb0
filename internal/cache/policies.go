package cache

import (
	"container/list"

	"hetkg/internal/ps"
)

// Policy is a classical cache replacement policy simulated over an access
// stream, used to reproduce Table VI's comparison against HET-KG's
// prefetch-and-filter selection. Policies track only identifiers; no
// embedding values are involved in the hit-ratio study.
type Policy interface {
	// Name identifies the policy.
	Name() string
	// Access records a reference to k and reports whether it hit.
	Access(k ps.Key) bool
	// Len returns the current resident-set size.
	Len() int
}

// NewPolicy constructs a policy by name ("fifo", "lru", "lfu") with the
// given capacity.
func NewPolicy(name string, capacity int) (Policy, bool) {
	switch name {
	case "fifo":
		return NewFIFO(capacity), true
	case "lru":
		return NewLRU(capacity), true
	case "lfu", "importance":
		return NewLFU(capacity), true
	default:
		return nil, false
	}
}

// FIFO evicts the oldest-admitted key.
type FIFO struct {
	capacity  int
	queue     *list.List // of ps.Key, front = oldest
	resident  map[ps.Key]struct{}
	evictions int64
}

// NewFIFO returns a FIFO cache of the given capacity.
func NewFIFO(capacity int) *FIFO {
	return &FIFO{capacity: capacity, queue: list.New(), resident: make(map[ps.Key]struct{})}
}

// Name implements Policy.
func (*FIFO) Name() string { return "FIFO" }

// Len implements Policy.
func (f *FIFO) Len() int { return len(f.resident) }

// Evictions returns the number of keys evicted so far.
func (f *FIFO) Evictions() int64 { return f.evictions }

// Access implements Policy.
func (f *FIFO) Access(k ps.Key) bool {
	if _, ok := f.resident[k]; ok {
		return true
	}
	if f.capacity == 0 {
		return false
	}
	if len(f.resident) >= f.capacity {
		oldest := f.queue.Remove(f.queue.Front()).(ps.Key)
		delete(f.resident, oldest)
		f.evictions++
	}
	f.resident[k] = struct{}{}
	f.queue.PushBack(k)
	return false
}

// LRU evicts the least-recently-used key.
type LRU struct {
	capacity  int
	order     *list.List // of ps.Key, front = most recent
	elems     map[ps.Key]*list.Element
	evictions int64
}

// NewLRU returns an LRU cache of the given capacity.
func NewLRU(capacity int) *LRU {
	return &LRU{capacity: capacity, order: list.New(), elems: make(map[ps.Key]*list.Element)}
}

// Name implements Policy.
func (*LRU) Name() string { return "LRU" }

// Len implements Policy.
func (l *LRU) Len() int { return len(l.elems) }

// Evictions returns the number of keys evicted so far.
func (l *LRU) Evictions() int64 { return l.evictions }

// Access implements Policy.
func (l *LRU) Access(k ps.Key) bool {
	if el, ok := l.elems[k]; ok {
		l.order.MoveToFront(el)
		return true
	}
	if l.capacity == 0 {
		return false
	}
	if len(l.elems) >= l.capacity {
		back := l.order.Back()
		l.order.Remove(back)
		delete(l.elems, back.Value.(ps.Key))
		l.evictions++
	}
	l.elems[k] = l.order.PushFront(k)
	return false
}

// LFU evicts the least-frequently-used key (ties broken by recency). It is
// the "importance cache" baseline of Table VI: admission by observed
// frequency, but without HET-KG's lookahead.
type LFU struct {
	capacity  int
	freq      map[ps.Key]int
	resident  map[ps.Key]struct{}
	clock     int64
	lastUse   map[ps.Key]int64
	evictions int64
}

// NewLFU returns an LFU cache of the given capacity.
func NewLFU(capacity int) *LFU {
	return &LFU{
		capacity: capacity,
		freq:     make(map[ps.Key]int),
		resident: make(map[ps.Key]struct{}),
		lastUse:  make(map[ps.Key]int64),
	}
}

// Name implements Policy.
func (*LFU) Name() string { return "LFU" }

// Len implements Policy.
func (l *LFU) Len() int { return len(l.resident) }

// Evictions returns the number of keys evicted so far.
func (l *LFU) Evictions() int64 { return l.evictions }

// Access implements Policy.
func (l *LFU) Access(k ps.Key) bool {
	l.clock++
	l.freq[k]++
	l.lastUse[k] = l.clock
	if _, ok := l.resident[k]; ok {
		return true
	}
	if l.capacity == 0 {
		return false
	}
	if len(l.resident) < l.capacity {
		l.resident[k] = struct{}{}
		return false
	}
	// Evict the coldest resident if the newcomer is at least as hot;
	// otherwise the newcomer is not admitted (frequency-based admission).
	var victim ps.Key
	victimFreq := int(^uint(0) >> 1)
	var victimUse int64
	for rk := range l.resident {
		f := l.freq[rk]
		if f < victimFreq || (f == victimFreq && l.lastUse[rk] < victimUse) {
			victim, victimFreq, victimUse = rk, f, l.lastUse[rk]
		}
	}
	if l.freq[k] >= victimFreq {
		delete(l.resident, victim)
		l.resident[k] = struct{}{}
		l.evictions++
	}
	return false
}

// ReplayHitRatio runs an access stream through a policy and returns the
// hit ratio.
func ReplayHitRatio(p Policy, stream []ps.Key) float64 {
	if len(stream) == 0 {
		return 0
	}
	hits := 0
	for _, k := range stream {
		if p.Access(k) {
			hits++
		}
	}
	return float64(hits) / float64(len(stream))
}

// StaticHitRatio measures the hit ratio of a fixed identifier set over an
// access stream — how HET-KG's prefetch-selected table is scored in
// Table VI.
func StaticHitRatio(table map[ps.Key]struct{}, stream []ps.Key) float64 {
	if len(stream) == 0 {
		return 0
	}
	hits := 0
	for _, k := range stream {
		if _, ok := table[k]; ok {
			hits++
		}
	}
	return float64(hits) / float64(len(stream))
}
