package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is generated from the tables (go run . -manifest); the
// driver reads the file, the program reads the tables, so they must agree.
func TestManifestMatchesTables(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the tables; regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
}

func TestTablesMeetTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkDefs := func(defs []metricDef, bounded bool) {
		for _, d := range defs {
			if !name.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q is malformed or used twice", d.Name)
			}
			seen[d.Name] = true
			if !unit.MatchString(d.Unit) {
				t.Errorf("metric %s has malformed unit %q", d.Name, d.Unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("metric %s has direction %q", d.Name, d.Better)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("metric %s has bound %v outside (0, 0.25]", d.Name, d.Bound)
			}
		}
	}
	checkDefs(endToEnd, true)
	checkDefs(extraEndToEnd, true)
	checkDefs(perLayer, false)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 / 128", len(endToEnd), len(perLayer))
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the contract wants setup_s in seconds, lower is better; got %+v", endToEnd[0])
	}
	ws := workloads(false)
	if len(ws) < 2 || len(ws) > 8 {
		t.Errorf("%d workloads, contract wants 2 to 8", len(ws))
	}
	for _, w := range ws {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or collides", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
		if (w.Train == nil) == (w.Serve == nil) {
			t.Errorf("workload %s must be exactly one of training and serving", w.Name)
		}
	}
}
