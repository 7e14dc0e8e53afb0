package plan

import (
	"os"
	"slices"
	"testing"

	"hetkg/internal/core"
	"hetkg/internal/dataset"
)

// FuzzPlanParse feeds arbitrary bytes to Parse and Resolve, the path every
// plan file takes. Nothing may panic, and no input may make Resolve allocate
// for more than maxRuns runs, however many its axes multiply to. An accepted
// input resolves to uniquely named runs (they become snapshot rows) of a
// system and a scale core trains, whose hashes are their specs', and parsing
// it a second time resolves to the same names and canonical specs, run for
// run.
func FuzzPlanParse(f *testing.F) {
	ci, err := os.ReadFile("../../examples/plans/ci.yml")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(ci), samplePlan, applyPlan,
		"plan: p\nrun:\n  staleness: -1\n  note: 'a # b'\nsweep:\n  lr:\n    - 0.1\n    - 1e-3\n  noHeterogeneity: [true, false]",
		"plan: p\nsweep:\n  dim: [1, 2, 3]\n  seed: [1, 2, 3]\n  epochs: [1, 2, 3]",
		"plan: p\nsweep:\n  codec: [\"fp32\", 'int8', topk]\n  cacheBudget: [0.5, .25, 1]",
		"plan: p\nrun:\n  scale: paper\nsweep:\n  system: [pbg, dglke, hetkg-c, hetkg-d]",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		runs, err := p.Resolve()
		if err != nil {
			return
		}
		if len(runs) > maxRuns {
			t.Fatalf("resolved %d runs, more than maxRuns", len(runs))
		}
		again, err := Parse(src)
		if err != nil {
			t.Fatalf("second parse of an accepted plan: %v", err)
		}
		runs2, err := again.Resolve()
		if err != nil || len(runs2) != len(runs) {
			t.Fatalf("second resolve: %d runs, %v; first gave %d", len(runs2), err, len(runs))
		}
		names := map[string]bool{}
		for i, r := range runs {
			if names[r.Name] {
				t.Fatalf("run name %q repeats", r.Name)
			}
			names[r.Name] = true
			if !slices.Contains(core.Systems(), r.Spec.System) {
				t.Fatalf("run %q: system %q is none core trains", r.Name, r.Spec.System)
			}
			if _, err := dataset.ParseScale(r.Spec.Scale.String()); err != nil {
				t.Fatalf("run %q: %v", r.Name, err)
			}
			if r.Hash != Hash(r.Spec) {
				t.Fatalf("run %q: hash %s is not its spec's", r.Name, r.Hash)
			}
			if r.Name != runs2[i].Name || Canonical(r.Spec) != Canonical(runs2[i].Spec) {
				t.Fatalf("run %d parsed twice: %q\n%s\nvs %q\n%s", i, r.Name, Canonical(r.Spec), runs2[i].Name, Canonical(runs2[i].Spec))
			}
		}
	})
}
