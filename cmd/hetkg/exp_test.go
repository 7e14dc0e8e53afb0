package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hetkg/internal/plan/benchfmt"
)

// wallColumns names, per experiment of TestExpTextAndSnapshots, the columns
// a clock decides.
var wallColumns = map[string][]string{
	"table1": {"Comp", "Total", "Comm%"},
	"fig8a":  {},
	"codecs": {"Wall"},
}

var (
	colGap     = regexp.MustCompile(`\s{2,}`)
	expHeading = regexp.MustCompile(`^== ([\w-]+): `)
	expFooter  = regexp.MustCompile(`wall time: [^,]+,`)
)

// maskWall blanks what a clock decides in `hetkg exp` text — the wallColumns
// cells and each experiment's wall-time footer — and squeezes the column
// padding and drops the rule line, whose widths those cells helped set.
func maskWall(t *testing.T, text string) string {
	var out []string
	var wall map[int]bool // nil outside a table's rows
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		switch m := expHeading.FindStringSubmatch(line); {
		case m != nil:
			cols, ok := wallColumns[m[1]]
			if !ok {
				t.Fatalf("no wallColumns entry for experiment %q", m[1])
			}
			i++
			header := colGap.Split(lines[i], -1)
			wall = map[int]bool{}
			for _, name := range cols {
				at := -1
				for j, h := range header {
					if h == name {
						at = j
					}
				}
				if at < 0 {
					t.Fatalf("%s has no column %q in %q", m[1], name, header)
				}
				wall[at] = true
			}
			out = append(out, line, strings.Join(header, "  "))
			i++ // the rule line
		case wall != nil && !strings.HasPrefix(line, "note: ") && line != "":
			cells := colGap.Split(line, -1)
			for j := range cells {
				if wall[j] {
					cells[j] = "~"
				}
			}
			out = append(out, strings.Join(cells, "  "))
		default:
			wall = nil
			out = append(out, expFooter.ReplaceAllString(line, "wall time: ~,"))
		}
	}
	return strings.Join(out, "\n")
}

// TestExpTextAndSnapshots pins both views of an experiment table. The text,
// wall-clock cells masked, is testdata/exp_tiny.golden — which was produced,
// through the same mask, by the last commit whose snapshots were parsed back
// out of this text. The snapshots hold the numbers behind the cells, not
// their 3-decimal renderings, and the codecs one reproduces the committed
// BENCH_codecs.json exactly.
func TestExpTextAndSnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three tiny experiments")
	}
	dir := t.TempDir()
	var out, errb strings.Builder
	if code := run([]string{"exp", "-exp", "table1,fig8a,codecs", "-scale", "tiny", "-bench-out", dir}, &out, &errb); code != 0 {
		t.Fatalf("exp exit %d: %s", code, errb.String())
	}
	want, err := os.ReadFile("testdata/exp_tiny.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := maskWall(t, out.String()); got != string(want) {
		t.Errorf("hetkg exp text, wall-clock masked:\n%s\nwant:\n%s", got, want)
	}

	// fig8a: every value is the unrounded number its cell rendered.
	f, err := benchfmt.Read(filepath.Join(dir, "BENCH_fig8a.json"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Scale != "tiny" || f.Seed != 42 || len(f.Rows) != 6 {
		t.Fatalf("fig8a snapshot = %+v", f)
	}
	for _, r := range f.Rows {
		size := strings.TrimPrefix(r.Name, "cachesize_ids=")
		for _, field := range []string{"hitratio", "mrr"} {
			v, ok := r.Values[field]
			if !ok || v == math.Round(v*1000)/1000 {
				t.Errorf("fig8a %s %s = %v: missing, or no more exact than the table's 3 decimals", r.Name, field, v)
			}
			if row := lineStarting(out.String(), size+" "); !strings.Contains(row, fmt.Sprintf(" %.3f ", v)) {
				t.Errorf("fig8a %s %s = %v is not what its row %q rendered", r.Name, field, v, row)
			}
		}
		if _, ok := r.Values["comm_ms"]; !ok || len(r.Wall) != 0 {
			t.Errorf("fig8a %s: simulated comm time belongs in values: %+v", r.Name, r)
		}
	}

	// table1: the measured columns are recorded, outside the gate.
	f, err = benchfmt.Read(filepath.Join(dir, "BENCH_table1.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Rows {
		if len(r.Values) != 1 || len(r.Wall) != 3 || r.Wall["comp_ms"] <= 0 {
			t.Errorf("table1 %s = values %v wall %v, want comm_ms | comp_ms total_ms comm", r.Name, r.Values, r.Wall)
		}
	}

	// codecs: the root snapshot is a live oracle.
	var cmp strings.Builder
	if code := run([]string{"compare", filepath.Join(dir, "BENCH_codecs.json"), "../../BENCH_codecs.json"}, &cmp, &cmp); code != 0 {
		t.Errorf("codecs snapshot drifted from the committed BENCH_codecs.json:\n%s", cmp.String())
	}
}

// lineStarting returns the first line of text with the given prefix.
func lineStarting(text, prefix string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}
