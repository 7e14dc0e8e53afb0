package main

import "testing"

func TestSupportedPercentile(t *testing.T) {
	// The highest candidate with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileClampsToSupported(t *testing.T) {
	samples := make([]float64, 600) // supports p95, not p99
	for i := range samples {
		samples[i] = float64(600 - i) // unsorted on purpose: 600..1
	}
	if v, used := percentile(samples, 50); v != 300 || used != 50 {
		t.Errorf("p50 = %v at p%v, want 300 at p50", v, used)
	}
	if v, used := percentile(samples, 99); v != 570 || used != 95 {
		t.Errorf("p99 of 600 samples = %v at p%v, want the p95 value 570 at p95", v, used)
	}
	if samples[0] != 600 {
		t.Errorf("percentile sorted its input in place")
	}
	if v, used := percentile(nil, 50); v != 0 || used != 0 {
		t.Errorf("percentile(nil) = %v at p%v, want 0, 0", v, used)
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, used := percentile(big, 99); v != 990 || used != 99 {
		t.Errorf("p99 of 1000 samples = %v at p%v, want 990 at p99", v, used)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}
