package plan

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"hetkg/internal/dataset"
	"hetkg/internal/model"
	"hetkg/internal/train"
)

const samplePlan = `
plan: codecs
run:
  dataset: fb15k
  scale: tiny
  epochs: 2
  machines: 2
sweep:
  codec: [fp32, int8, delta-int8]
  cacheBudget: [0.01, 0.05]
`

func TestParsePlan(t *testing.T) {
	p, err := Parse([]byte(samplePlan))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Name != "codecs" {
		t.Errorf("Name = %q", p.Name)
	}
	if p.Base.Scale != dataset.Tiny || p.Base.Epochs != 2 || p.Base.Machines != 2 {
		t.Errorf("Base = %+v", p.Base)
	}
	// Axes sort by key: cacheBudget before codec.
	if len(p.Sweep) != 2 || p.Sweep[0].Key != "cacheBudget" || p.Sweep[1].Key != "codec" {
		t.Fatalf("Sweep = %+v", p.Sweep)
	}
}

func TestParsePlanErrors(t *testing.T) {
	cases := []struct{ name, src, wantSub string }{
		{"missing name", "run:\n  epochs: 1", "missing `plan:` name"},
		{"bad name", "plan: a/b", "BENCH_<plan>.json"},
		{"unknown top key", "plan: p\nsweeps:\n  codec: [a]", "unknown top-level key"},
		{"unknown run key", "plan: p\nrun:\n  codecs: int8", "unknown run key"},
		{"unknown sweep key", "plan: p\nsweep:\n  bogus: [1]", "unknown run key"},
		{"sweep not list", "plan: p\nsweep:\n  codec: int8", "must list values"},
		{"sweep empty", "plan: p\nsweep:\n  codec: []", "has no values"},
		{"sweep bad type", "plan: p\nsweep:\n  epochs: [one]", "wants an integer"},
		{"sweep repeated value", "plan: p\nsweep:\n  lr: [0.1, 1, 1.0]", `lists 1 twice`},
		{"run bad type", "plan: p\nrun:\n  epochs: soon", "wants an integer"},
		// The gate is equality; a plan has nothing to configure about it.
		{"bad compare key", "plan: p\ncompare:\n  mrr: 0.02", `unknown top-level key "compare"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

func TestResolveMatrix(t *testing.T) {
	p, err := Parse([]byte(samplePlan))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	runs, err := p.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	wantNames := []string{
		"cacheBudget=0.01,codec=fp32",
		"cacheBudget=0.01,codec=int8",
		"cacheBudget=0.01,codec=delta-int8",
		"cacheBudget=0.05,codec=fp32",
		"cacheBudget=0.05,codec=int8",
		"cacheBudget=0.05,codec=delta-int8",
	}
	if len(runs) != len(wantNames) {
		t.Fatalf("got %d runs, want %d", len(runs), len(wantNames))
	}
	seenHash := map[string]string{}
	for i, r := range runs {
		if r.Name != wantNames[i] {
			t.Errorf("run %d = %q, want %q", i, r.Name, wantNames[i])
		}
		if len(r.Hash) != 64 {
			t.Errorf("run %q hash = %q, want 64 hex chars", r.Name, r.Hash)
		}
		if prev, dup := seenHash[r.Hash]; dup {
			t.Errorf("runs %q and %q share hash %s", prev, r.Name, r.Hash)
		}
		seenHash[r.Hash] = r.Name
		if Hash(r.Spec) != r.Hash {
			t.Errorf("run %q hash does not match its spec", r.Name)
		}
	}

	// Resolution is deterministic across parses.
	p2, _ := Parse([]byte(samplePlan))
	runs2, _ := p2.Resolve()
	for i := range runs {
		if runs[i].Name != runs2[i].Name || runs[i].Hash != runs2[i].Hash {
			t.Fatalf("resolution not deterministic at run %d", i)
		}
	}
}

func TestResolveNoSweep(t *testing.T) {
	p, err := Parse([]byte("plan: single\nrun:\n  scale: tiny"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	runs, err := p.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if len(runs) != 1 || runs[0].Name != "base" {
		t.Fatalf("runs = %+v, want one run named base", runs)
	}
}

// TestResolveRefusesHugeMatrix: the run count is the product of the axis
// lengths, so a few hundred bytes of plan can name more runs than fit in
// memory or in an int. Resolve refuses such a plan by its run count before
// allocating anything for it.
func TestResolveRefusesHugeMatrix(t *testing.T) {
	values := func(n int) string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprint(i + 1)
		}
		return "[" + strings.Join(vals, ", ") + "]"
	}
	for _, tc := range []struct {
		axes, size int
		count      string
	}{
		{7, 1000, "1000000000000000000000"}, // overflows int64
		{4, 200, "1600000000"},
		{2, 101, "10201"},
	} {
		src := "plan: huge\nsweep:\n"
		for _, key := range []string{"dim", "epochs", "batch", "negs", "chunk", "seed", "evalMax"}[:tc.axes] {
			src += "  " + key + ": " + values(tc.size) + "\n"
		}
		p, err := Parse([]byte(src))
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		runs, err := p.Resolve()
		if err == nil || !strings.Contains(err.Error(), tc.count+" runs") {
			t.Errorf("%d axes of %d: Resolve = %d runs, %v; want a refusal naming %s runs", tc.axes, tc.size, len(runs), err, tc.count)
		}
	}
}

// TestParseRefusesUnknownScaleAndSystem: a misspelled scale or system is
// refused when the plan is parsed, naming the choices — not hashed as a run
// that cannot exist, nor trained at the default under the typo's name.
func TestParseRefusesUnknownScaleAndSystem(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"run:\n  scale: tyni", `unknown scale "tyni" (have tiny | small | paper)`},
		{"run:\n  system: hetkg-x", `unknown system "hetkg-x" (have pbg | dglke | hetkg-c | hetkg-d)`},
		{"run:\n  scale: 1", `key "scale" wants a string`},
		{"sweep:\n  scale: [tiny, tyni]", `unknown scale "tyni"`},
		{"sweep:\n  system: [dglke, hetkg-x]", `unknown system "hetkg-x"`},
	} {
		if _, err := Parse([]byte("plan: typo\n" + tc.src)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse %q: %v, want an error containing %q", tc.src, err, tc.want)
		}
	}
}

// TestModelFlagNamesEveryModel: -model's help lists every registered model,
// so a model added to the registry shows up in `hetkg train -h`.
func TestModelFlagNamesEveryModel(t *testing.T) {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	BindFlags(fs)
	usage := fs.Lookup("model").Usage
	for _, name := range model.Names() {
		if !strings.Contains(usage, " "+name+" ") {
			t.Errorf("-model usage %q does not name %s", usage, name)
		}
	}
}

// TestNegativeStalenessIsUnbounded: staleness -1 spells unbounded staleness
// (no refresh, ever) for every system, the cache-backed ones included.
func TestNegativeStalenessIsUnbounded(t *testing.T) {
	p := &Plan{Name: "stale", Base: train.RunConfig{Scale: dataset.Tiny, System: train.SystemHETKGC, Epochs: 1, Machines: 2, EvalEvery: -1}}
	p.Sweep = []SweepAxis{axis("staleness", -1, 8)}
	hit := map[int]float64{}
	if err := execute(p, ApplyOptions{}, func(o outcome) { hit[o.Spec.CacheSyncEvery] = o.Result.HitRatio }); err != nil {
		t.Fatal(err)
	}
	// A bounded cache misses on every expired row; an unbounded one never
	// expires any.
	if !(hit[-1] > hit[8]) {
		t.Errorf("hit ratio: unbounded %v, P=8 %v; want higher unbounded", hit[-1], hit[8])
	}
}

func TestLoadReportsPath(t *testing.T) {
	_, err := Load("/nonexistent/hetkg.yml")
	if err == nil {
		t.Fatal("Load of a missing file succeeded")
	}
}
