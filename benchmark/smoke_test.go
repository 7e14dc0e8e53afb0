package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeEveryWorkload runs every workload at smoke size, untraced and
// replayed, in this process: it keeps the harness compiling against the
// packages it measures and honest about its own checks. The numbers mean
// nothing at this size.
func TestSmokeEveryWorkload(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads(true) {
		for _, trace := range []bool{false, true} {
			res := runWorkload(w, runOptions{seed: 42, seconds: 1, trace: trace, short: true, outDir: out})
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s trace=%v: check %s failed: %s", w.Name, trace, c.Name, c.Detail)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if !trace {
				for _, d := range endToEnd {
					if v, ok := res.Metrics[d.Name]; !ok || v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want it reported and positive", w.Name, d.Name, v)
					}
				}
				continue
			}
			for name := range res.Metrics {
				if unitOf(name) == "" {
					t.Errorf("%s: replay reported %s, which no metric table defines", w.Name, name)
				}
			}
			if _, err := os.Stat(filepath.Join(out, w.Name+".spans.jsonl")); err != nil {
				t.Errorf("%s: replay wrote no span file: %v", w.Name, err)
			}
			if share := res.Metrics["trace.unattributed_share"]; share < 0 || share > 0.1 {
				t.Errorf("%s: unattributed share %v, want the layers to account for 90-100%% of replay wall", w.Name, share)
			}
		}
	}
}
