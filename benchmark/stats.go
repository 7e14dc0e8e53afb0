package main

import (
	"math"
	"sort"
)

// median returns the middle value of v (mean of the two middle values for
// an even count), or 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailCandidates are the percentiles a latency metric may be reported at.
var tailCandidates = []float64{50, 90, 95, 99, 99.9}

// supportedPercentile returns the highest candidate percentile that still
// has at least ten of n samples beyond it — the highest one whose value is
// set by more than a handful of outliers. It never goes below the median.
func supportedPercentile(n int) float64 {
	best := tailCandidates[0]
	for _, p := range tailCandidates {
		if float64(n)*(100-p) >= 1000*(1-1e-12) { // n·(1-p/100) ≥ 10, immune to 0.1 not being a binary fraction
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of samples, with p
// first clamped to supportedPercentile(len(samples)); used is the percentile
// actually reported. Empty input yields (0, 0).
func percentile(samples []float64, p float64) (value, used float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	if sup := supportedPercentile(len(samples)); p > sup {
		p = sup
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], p
}

// pct is percentile without the percentile actually used.
func pct(samples []float64, p float64) float64 {
	v, _ := percentile(samples, p)
	return v
}

func sum(v []float64) (s float64) {
	for _, x := range v {
		s += x
	}
	return s
}

// relDiff returns |a-b| as a share of |a|: the selfcheck's measure of how
// far a second run of the same code landed from the first.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(a)
}
