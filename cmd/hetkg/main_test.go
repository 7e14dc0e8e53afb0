package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetkg/internal/plan/benchfmt"
)

const testPlan = `
plan: clitest
run:
  scale: tiny
  epochs: 1
  machines: 2
  evalMax: 50
sweep:
  codec: [fp32, int8]
`

func writePlan(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.yml")
	if err := os.WriteFile(path, []byte(testPlan), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPlanVerbDeterministic(t *testing.T) {
	path := writePlan(t)
	var out1, out2, errb strings.Builder
	if code := run([]string{"plan", path}, &out1, &errb); code != 0 {
		t.Fatalf("plan exit %d: %s", code, errb.String())
	}
	if code := run([]string{"plan", path}, &out2, &errb); code != 0 {
		t.Fatalf("plan exit %d: %s", code, errb.String())
	}
	if out1.String() != out2.String() {
		t.Fatalf("plan output not deterministic:\n%s\nvs\n%s", out1.String(), out2.String())
	}
	for _, want := range []string{"plan clitest: 2 run(s)", "codec=fp32", "codec=int8"} {
		if !strings.Contains(out1.String(), want) {
			t.Errorf("plan output lacks %q:\n%s", want, out1.String())
		}
	}
}

func TestApplyAndCompareRoundTrip(t *testing.T) {
	path := writePlan(t)
	outDir := t.TempDir()
	artDir := filepath.Join(t.TempDir(), "artifacts")

	var out, errb strings.Builder
	code := run([]string{"apply", "-artifacts", artDir, "-out", outDir, "-q", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("apply exit %d: %s", code, errb.String())
	}
	snap := filepath.Join(outDir, "BENCH_clitest.json")
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v (stdout: %s)", err, out.String())
	}

	// compare gates the snapshot against an edited copy of itself standing
	// in as the baseline.
	compare := func(edit func(*benchfmt.File)) (int, string) {
		t.Helper()
		f, err := benchfmt.Read(snap)
		if err != nil {
			t.Fatal(err)
		}
		edit(f)
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Join(t.TempDir(), "BENCH_base.json")
		if err := os.WriteFile(base, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errb strings.Builder
		code := run([]string{"compare", snap, base}, &out, &errb)
		return code, out.String() + errb.String()
	}

	if code, text := compare(func(*benchfmt.File) {}); code != 0 || !strings.Contains(text, "compare: OK (12 values identical)") {
		t.Errorf("self-compare exit %d:\n%s", code, text)
	}
	// Wall-clock readings are recorded, not gated.
	if code, text := compare(func(f *benchfmt.File) { f.Rows[0].Wall["wall_ms"] *= 9 }); code != 0 {
		t.Errorf("a wall_ms change failed the gate (exit %d):\n%s", code, text)
	}
	// The smallest drift fails, in either direction: a baseline one ulp off
	// in mrr, and one whose loss was higher (the snapshot "improved").
	if code, text := compare(func(f *benchfmt.File) {
		f.Rows[1].Values["mrr"] = math.Nextafter(f.Rows[1].Values["mrr"], 1)
	}); code != 1 || !strings.Contains(text, "codec=int8/mrr: ") || !strings.Contains(text, "compare: FAIL (1 problems; 12 values compared)") {
		t.Errorf("one-ulp mrr drift exit %d, want 1:\n%s", code, text)
	}
	if code, text := compare(func(f *benchfmt.File) { f.Rows[0].Values["loss"] *= 1.5 }); code != 1 || !strings.Contains(text, "codec=fp32/loss: ") {
		t.Errorf("lower loss than the baseline exit %d, want 1:\n%s", code, text)
	}
	if code, text := compare(func(f *benchfmt.File) { f.Rows[0].Values["new_field"] = 1 }); code != 1 || !strings.Contains(text, "codec=fp32/new_field: MISSING FIELD") {
		t.Errorf("missing field exit %d, want 1:\n%s", code, text)
	}
	// Files the gate cannot meaningfully compare are refused by cause.
	if code, text := compare(func(f *benchfmt.File) { f.SchemaName = "hetkg-bench/v2" }); code != 1 || !strings.Contains(text, `schema "hetkg-bench/v2", want "hetkg-bench/v3"`) {
		t.Errorf("v2 baseline exit %d, want a schema refusal:\n%s", code, text)
	}
	if code, text := compare(func(f *benchfmt.File) { f.Meta[benchfmt.MetaGoArch] = "s390x" }); code != 1 || !strings.Contains(text, "goarch s390x") {
		t.Errorf("foreign-arch baseline exit %d, want a goarch refusal:\n%s", code, text)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"bogus-verb"},
		{"plan"},
		{"apply"},
		{"compare", "only-one.json"},
	}
	for _, args := range cases {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	var out, errb strings.Builder
	if code := run([]string{"help"}, &out, &errb); code != 0 || !strings.Contains(out.String(), "usage:") {
		t.Errorf("help exit %d output %q", code, out.String())
	}
	// A misspelled scale is refused by every verb that reads one, not
	// trained or generated at the default size under the typo's name.
	for _, verb := range [][]string{{"data"}, {"partition"}, {"exp", "-exp", "xablation-negsampling"}, {"train", "-epochs", "1"}} {
		var out, errb strings.Builder
		code := run(append(verb, "-scale", "tyni"), &out, &errb)
		if code == 0 || !strings.Contains(errb.String(), "tiny | small | paper") {
			t.Errorf("hetkg %s -scale tyni exit %d, stderr %q: want a refusal naming tiny | small | paper", verb[0], code, errb.String())
		}
	}
	// Runtime (not usage) failures exit 1.
	if code := run([]string{"plan", "/nonexistent.yml"}, &out, &errb); code != 1 {
		t.Errorf("missing plan file exit %d, want 1", code)
	}
}
