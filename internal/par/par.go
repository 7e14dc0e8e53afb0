// Package par is the deterministic parallel execution engine underneath the
// trainers and the evaluator: a bounded worker pool that fans an index space
// out across at most Degree goroutines and collects results in index order.
//
// Determinism is the design constraint. HET-KG's experiments must be
// reproducible bit-for-bit at any core count, so every primitive here obeys
// two rules:
//
//  1. Work decomposition never depends on the parallelism degree. Shards
//     returns the same contiguous ranges for a given index space whether the
//     caller runs them on one goroutine or thirty-two, so floating-point
//     accumulation that is private per shard and merged in shard order gives
//     identical bits at every degree.
//  2. Results are collected by index, never by completion order: Map writes
//     each result into its own slot.
//
// Callers own any cross-item state: functions passed to For/Map must only
// write to index-addressed slots (or shard-private scratch) and may freely
// read shared immutable inputs.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Degree resolves a configured parallelism knob: values > 0 are used as-is,
// anything else means "all cores" (runtime.GOMAXPROCS). This is the single
// interpretation of Config.Parallelism across the repo.
func Degree(configured int) int {
	if configured > 0 {
		return configured
	}
	return runtime.GOMAXPROCS(0)
}

// Range is one contiguous shard [Begin, End) of an index space.
type Range struct {
	Begin, End int
}

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.End - r.Begin }

// Shards partitions [0, n) into at most want contiguous near-equal ranges
// (the first n%want shards are one element longer). The boundaries depend
// only on n and want — never on how many goroutines execute them — which is
// what makes sharded float accumulation reproducible at any core count.
func Shards(n, want int) []Range {
	if n <= 0 {
		return nil
	}
	if want > n {
		want = n
	}
	if want < 1 {
		want = 1
	}
	out := make([]Range, want)
	size, rem := n/want, n%want
	begin := 0
	for s := range out {
		end := begin + size
		if s < rem {
			end++
		}
		out[s] = Range{Begin: begin, End: end}
		begin = end
	}
	return out
}

// For runs fn(i) for every i in [0, n), using at most degree goroutines.
// degree <= 1 runs inline with zero scheduling overhead — the serial
// baseline the benchmarks compare against. Items are claimed dynamically
// (work-stealing via a shared counter), so fn must not care which goroutine
// runs which index; determinism comes from writing results by index.
// For returns only after every item has completed.
func For(degree, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if degree > n {
		degree = n
	}
	if degree <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(degree)
	for g := 0; g < degree; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map runs fn over [0, n) on at most degree goroutines and returns the
// results in index order — the pool's ordered result collection.
func Map[T any](degree, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	For(degree, n, func(i int) { out[i] = fn(i) })
	return out
}
