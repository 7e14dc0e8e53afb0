// Package metrics is the observability contract the rest of the repo builds
// on: a registry of named atomic counters, gauges, deterministic log-bucket
// histograms and timers (registry.go, histogram.go), the canonical series
// names every subsystem publishes under (names.go), and the JSONL run
// timeline that snapshots the registry as training proceeds (timeline.go).
package metrics

import "sync/atomic"

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
