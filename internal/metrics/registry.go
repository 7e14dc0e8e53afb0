package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a registered metric.
type Kind string

// The four metric kinds a Registry holds.
const (
	// KindCounter is a monotonically increasing integer.
	KindCounter Kind = "counter"
	// KindGauge is a settable float64 (last write wins).
	KindGauge Kind = "gauge"
	// KindHistogram is a distribution over fixed log-spaced buckets.
	KindHistogram Kind = "histogram"
	// KindTimer accumulates wall-clock durations. Timers are excluded from
	// timeline records (they are not deterministic across runs); they are
	// visible on the live introspection endpoint.
	KindTimer Kind = "timer"
)

// Gauge is an atomically settable float64 metric. The zero value reads 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last value stored by Set.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry is a concurrency-safe collection of named metrics. Components
// register metrics by name with the kind-specific get-or-create accessors
// (Counter, Gauge, Histogram, Timer); registering the same name twice
// returns the same metric, so independent subsystems (e.g. every worker's
// HotCache) share one aggregate series. Snapshot reads a consistent
// point-in-time view without blocking writers.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// lookup returns the metric registered under name, creating it with mk on
// first use.
func (r *Registry) lookup(name string, mk func() any) any {
	r.mu.RLock()
	m, ok := r.metrics[name]
	r.mu.RUnlock()
	if ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m = mk()
	r.metrics[name] = m
	return m
}

// Counter returns the counter registered under name, creating it on first
// use. It panics if name is already registered as a different kind.
func (r *Registry) Counter(name string) *Counter {
	m := r.lookup(name, func() any { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %s", name, kindOf(m)))
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// It panics if name is already registered as a different kind.
func (r *Registry) Gauge(name string) *Gauge {
	m := r.lookup(name, func() any { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %s", name, kindOf(m)))
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. It panics if name is already registered as a different kind.
func (r *Registry) Histogram(name string) *Histogram {
	m := r.lookup(name, func() any { return &Histogram{} })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %s", name, kindOf(m)))
	}
	return h
}

// Timer returns the timer registered under name, creating it on first use.
// It panics if name is already registered as a different kind.
func (r *Registry) Timer(name string) *Timer {
	m := r.lookup(name, func() any { return &Timer{} })
	t, ok := m.(*Timer)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %s", name, kindOf(m)))
	}
	return t
}

// Names returns the registered metric names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns a point-in-time copy of every registered metric's value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(Snapshot, len(r.metrics))
	for name, m := range r.metrics {
		out[name] = valueOf(m)
	}
	return out
}

// Snapshot maps metric names to point-in-time values. encoding/json sorts
// map keys, so a marshalled snapshot is deterministic.
type Snapshot map[string]Value

// Filter returns the subset of s whose names start with prefix — the
// server side of the introspection endpoint's ?prefix= query (an
// operator grabbing only cluster.* or serve.* without piping through
// jq). An empty prefix returns s unchanged.
func (s Snapshot) Filter(prefix string) Snapshot {
	if prefix == "" {
		return s
	}
	out := make(Snapshot)
	for name, v := range s {
		if strings.HasPrefix(name, prefix) {
			out[name] = v
		}
	}
	return out
}

// Deterministic returns a copy of s without timer metrics: everything that
// remains is derived from iteration counts, rows, bytes, and losses, which
// are bit-identical across runs of the same configuration (wall-clock
// timers are not). Timeline records embed this view.
func (s Snapshot) Deterministic() Snapshot {
	out := make(Snapshot, len(s))
	for name, v := range s {
		if v.Kind == KindTimer {
			continue
		}
		out[name] = v
	}
	return out
}

// Value is one metric's snapshotted state. Which fields are meaningful
// depends on Kind: counters use Count; gauges use Value; histograms use
// Count, Sum, Buckets, and Quantiles; timers use Count and Sum (seconds).
type Value struct {
	Kind Kind `json:"kind"`
	// Count is the counter value, or the observation count for histograms
	// and timers.
	Count int64 `json:"count,omitempty"`
	// Value is the gauge value.
	Value float64 `json:"value,omitempty"`
	// Sum is the sum of histogram observations, or a timer's total seconds.
	Sum float64 `json:"sum,omitempty"`
	// Buckets lists the histogram's non-empty buckets.
	Buckets []Bucket `json:"buckets,omitempty"`
	// Quantiles caches the histogram's p50/p90/p95/p99 at snapshot time.
	Quantiles *Quantiles `json:"q,omitempty"`
}

// Bucket is one non-empty histogram bucket: N observations at most LE.
type Bucket struct {
	// LE is the bucket's inclusive upper bound.
	LE float64 `json:"le"`
	// N is the number of observations that fell into the bucket.
	N int64 `json:"n"`
}

// Quantiles holds a histogram's snapshot quantiles. Each value is the upper
// bound of the bucket containing the quantile rank (a conservative
// estimate; see Histogram).
type Quantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// kindOf returns the Kind of a registered metric.
func kindOf(m any) Kind {
	switch m.(type) {
	case *Counter:
		return KindCounter
	case *Gauge:
		return KindGauge
	case *Histogram:
		return KindHistogram
	case *Timer:
		return KindTimer
	}
	return Kind(fmt.Sprintf("%T", m))
}

// valueOf snapshots a registered metric.
func valueOf(m any) Value {
	switch v := m.(type) {
	case *Counter:
		return Value{Kind: KindCounter, Count: v.Value()}
	case *Gauge:
		return Value{Kind: KindGauge, Value: v.Value()}
	case *Histogram:
		return v.snapshot()
	case *Timer:
		return Value{Kind: KindTimer, Count: v.Count(), Sum: v.Total().Seconds()}
	}
	return Value{Kind: kindOf(m)}
}
