package plan

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hetkg/internal/plan/benchfmt"
)

func snapshot(rows ...benchfmt.Row) *benchfmt.File {
	return &benchfmt.File{SchemaName: benchfmt.Schema, Name: "t", Rows: rows}
}

func row(name string, kv ...any) benchfmt.Row {
	r := benchfmt.Row{Name: name, Values: map[string]float64{}}
	for i := 0; i < len(kv); i += 2 {
		r.Values[kv[i].(string)] = kv[i+1].(float64)
	}
	return r
}

// compare is Compare for snapshots that carry no goarch to disagree on.
func compare(t *testing.T, cur, base *benchfmt.File) *Report {
	t.Helper()
	rep, err := Compare(cur, base)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	return rep
}

func TestCompareIdenticalPasses(t *testing.T) {
	base := snapshot(row("a", "mrr", 0.5, "loss", 1.25, "bytes_wire", 1000.0))
	rep := compare(t, base, base)
	if !rep.OK() {
		t.Fatalf("identical snapshots fail: %s", rep.Summary())
	}
	if rep.Compared != 3 {
		t.Fatalf("Compared = %d, want 3", rep.Compared)
	}
}

// TestCompareRegressionFails: the smallest possible drift — one ulp of mrr,
// far inside any percentage tolerance — fails the gate and is printed with
// enough digits to see.
func TestCompareRegressionFails(t *testing.T) {
	base := snapshot(row("a", "mrr", 0.5))
	cur := snapshot(row("a", "mrr", math.Nextafter(0.5, 0)))
	rep := compare(t, cur, base)
	if rep.OK() || len(rep.Problems) != 1 || rep.Compared != 1 {
		t.Fatalf("one-ulp mrr drift passed: %+v", rep)
	}
	if p := rep.Problems[0]; p != "a/mrr: 0.5 -> 0.49999999999999994 DIFFERS" {
		t.Errorf("problem = %q", p)
	}
	if !strings.Contains(rep.Summary(), "FAIL (1 problems; 1 values compared)") {
		t.Errorf("Summary = %q", rep.Summary())
	}
}

// TestCompareImprovementFails: there is no better direction. A lower loss,
// fewer wire bytes or a higher mrr is as much a behaviour change as the
// opposite, and the gate reports each one.
func TestCompareImprovementFails(t *testing.T) {
	base := snapshot(row("a", "mrr", 0.5, "bytes_wire", 1000.0, "loss", 1.0))
	for field, better := range map[string]float64{"mrr": 0.7, "bytes_wire": 500.0, "loss": 0.5} {
		cur := snapshot(row("a", "mrr", 0.5, "bytes_wire", 1000.0, "loss", 1.0))
		cur.Rows[0].Values[field] = better
		rep := compare(t, cur, base)
		if rep.OK() || len(rep.Problems) != 1 || !strings.HasPrefix(rep.Problems[0], "a/"+field+": ") {
			t.Errorf("%s %v -> %v passed the gate: %+v", field, base.Rows[0].Values[field], better, rep)
		}
	}
}

// TestCompareIgnoresWall: wall-clock readings live outside `values` and may
// move, appear or vanish freely.
func TestCompareIgnoresWall(t *testing.T) {
	base := snapshot(row("a", "mrr", 0.5))
	base.Rows[0].Wall = map[string]float64{"wall_ms": 100, "iters_per_sec": 2000}
	cur := snapshot(row("a", "mrr", 0.5))
	cur.Rows[0].Wall = map[string]float64{"wall_ms": 900}
	if rep := compare(t, cur, base); !rep.OK() || rep.Compared != 1 {
		t.Fatalf("a 9x wall_ms change failed the gate: %s", rep.Summary())
	}
}

func TestCompareMissingRowAndField(t *testing.T) {
	base := snapshot(row("a", "mrr", 0.5), row("b", "mrr", 0.6))
	cur := snapshot(row("a", "loss", 10.0))
	rep := compare(t, cur, base)
	if rep.OK() {
		t.Fatal("missing measurements passed the gate")
	}
	if want := []string{"a/mrr: MISSING FIELD", "b: MISSING ROW"}; !reflect.DeepEqual(rep.Problems, want) {
		t.Errorf("Problems = %q, want %q", rep.Problems, want)
	}
	if !strings.Contains(rep.Summary(), "FAIL") {
		t.Errorf("Summary = %q", rep.Summary())
	}
}

// TestCompareNothingComparedFails: a baseline with no rows, or with rows that
// hold only wall-clock readings, gates nothing, so it cannot pass.
func TestCompareNothingComparedFails(t *testing.T) {
	cur := snapshot(row("a", "mrr", 0.5))
	wallOnly := snapshot(benchfmt.Row{Name: "a", Values: map[string]float64{}, Wall: map[string]float64{"wall_ms": 9}})
	for name, base := range map[string]*benchfmt.File{"no rows": snapshot(), "wall only": wallOnly} {
		rep := compare(t, cur, base)
		if rep.OK() || rep.Compared != 0 || !strings.Contains(rep.Summary(), "FAIL (1 problems; 0 values compared)") {
			t.Errorf("%s: %s %q, want a failure", name, rep.Summary(), rep.Problems)
		}
	}
}

func TestCompareExtraCurrentDataIgnored(t *testing.T) {
	base := snapshot(row("a", "mrr", 0.5))
	cur := snapshot(row("a", "mrr", 0.5, "hit_ratio", 0.9), row("new", "mrr", 0.1))
	if rep := compare(t, cur, base); !rep.OK() {
		t.Fatalf("new rows/fields broke the gate: %s", rep.Summary())
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	base := snapshot(row("a", "bytes_wire", 0.0))
	same := snapshot(row("a", "bytes_wire", 0.0))
	if rep := compare(t, same, base); !rep.OK() {
		t.Fatalf("0 -> 0 failed: %s", rep.Summary())
	}
	grew := snapshot(row("a", "bytes_wire", 512.0))
	if rep := compare(t, grew, base); rep.OK() {
		t.Fatal("0 -> 512 bytes passed the gate")
	}
}

// TestCompareRefusesForeignArch: floats are bit-reproducible within one
// GOARCH only, so a baseline pinned elsewhere is refused by name rather than
// reported as a wall of one-ulp diffs.
func TestCompareRefusesForeignArch(t *testing.T) {
	base := snapshot(row("a", "mrr", 0.5))
	base.Meta = map[string]string{benchfmt.MetaGoArch: "arm64"}
	cur := snapshot(row("a", "mrr", math.Nextafter(0.5, 1)))
	cur.Meta = map[string]string{benchfmt.MetaGoArch: "amd64"}
	_, err := Compare(cur, base)
	if err == nil || !strings.Contains(err.Error(), "goarch arm64") || !strings.Contains(err.Error(), "amd64") {
		t.Fatalf("Compare across architectures = %v, want a goarch refusal", err)
	}
	cur.Meta[benchfmt.MetaGoArch] = "arm64"
	if rep := compare(t, cur, base); rep.OK() {
		t.Fatal("same-arch drift passed")
	}
}
