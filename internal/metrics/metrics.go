// Package metrics provides the lightweight instrumentation the experiment
// harness reads: atomic counters, hit ratios, and per-epoch
// computation/communication records (the quantities behind the paper's
// Table I, Fig. 7, and Fig. 8 hit-ratio plots).
package metrics

import (
	"sync/atomic"
	"time"
)

// Counter is a monotonically adjustable atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v.Store(0) }

// Ratio tracks a hits/total pair, e.g. cache hit ratio.
type Ratio struct {
	Hits  Counter
	Total Counter
}

// Hit records one hit (which is also one access).
func (r *Ratio) Hit() {
	r.Hits.Inc()
	r.Total.Inc()
}

// Miss records one miss.
func (r *Ratio) Miss() { r.Total.Inc() }

// Value returns hits/total, or 0 when nothing was recorded.
func (r *Ratio) Value() float64 {
	t := r.Total.Value()
	if t == 0 {
		return 0
	}
	return float64(r.Hits.Value()) / float64(t)
}

// Reset zeroes both counters.
func (r *Ratio) Reset() {
	r.Hits.Reset()
	r.Total.Reset()
}

// EpochStat is one epoch's record in a training run, the raw material of
// the paper's convergence figures (Fig. 5, Fig. 9).
type EpochStat struct {
	Epoch    int
	Loss     float64
	MRR      float64
	Comp     time.Duration
	Comm     time.Duration
	HitRatio float64
	// CumTime is total training time (comp+comm) through this epoch.
	CumTime time.Duration
}

// Total returns the epoch's comp+comm time.
func (e EpochStat) Total() time.Duration { return e.Comp + e.Comm }
