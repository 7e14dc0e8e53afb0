package core

import (
	"fmt"
	"io"
	"strings"
	"time"

	"hetkg/internal/plan/benchfmt"
)

// Table is one experiment's output: a titled grid of cells matching the
// corresponding table or figure in the paper, plus free-form notes (the
// workload, parameters, and expected shape). Every cell is authored once;
// Render and Snapshot are two views of the same rows.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]Cell
	Notes  []string
	// Scale and Seed are the options the experiment ran with, and Meta any
	// further provenance (dataset, dim, ...); all three land in Snapshot.
	Scale string
	Seed  int64
	Meta  map[string]string
}

// Cell is one table cell: Text is what the table renders and Value the exact
// number behind the text, which the table's snapshot records under Key —
// among the row's deterministic `values` unless the cell is marked Wall. A
// label cell (a system, a dataset, a swept setting) names the row instead.
// Build cells with Label, Fmt, Pct and Dur.
type Cell struct {
	Text  string
	Value float64
	// Key is the snapshot field. AddRow derives it from the column header
	// (benchfmt.NormalizeField, plus the unit suffix of a Dur) when empty.
	Key         string
	label, wall bool
	unit        string
}

// Label is a cell that identifies its row instead of measuring something.
func Label(v any) Cell { return Cell{Text: fmt.Sprint(v), label: true} }

// Fmt is a measurement rendered with a single-verb float format ("%.3f",
// "%.2fx", "%.0f").
func Fmt(format string, v float64) Cell { return Cell{Text: fmt.Sprintf(format, v), Value: v} }

// Pct is a fraction rendered as a percentage with prec decimals; the
// snapshot keeps the fraction.
func Pct(frac float64, prec int) Cell {
	return Cell{Text: fmt.Sprintf("%.*f%%", prec, 100*frac), Value: frac}
}

// Dur is a duration rendered to the millisecond and recorded in
// milliseconds under a key ending in _ms. A simulated (cost-model) duration
// is deterministic; mark a measured one Wall.
func Dur(d time.Duration) Cell {
	return Cell{Text: d.Round(time.Millisecond).String(), Value: float64(d) / float64(time.Millisecond), unit: "_ms"}
}

// Wall marks the cell as wall-clock: it renders the same but is recorded
// under the snapshot row's `wall`, outside what `hetkg compare` holds equal.
func (c Cell) Wall() Cell { c.wall = true; return c }

// AddRow appends a row. A Cell is taken as authored, a float becomes
// Fmt("%.3f"), and anything else — strings, ints — a Label.
func (t *Table) AddRow(cells ...any) {
	row := make([]Cell, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case Cell:
			row[i] = v
		case float64:
			row[i] = Fmt("%.3f", v)
		default:
			row[i] = Label(c)
		}
		if row[i].Key == "" && i < len(t.Header) {
			row[i].Key = benchfmt.NormalizeField(t.Header[i]) + row[i].unit
		}
	}
	t.Rows = append(t.Rows, row)
}

// Snapshot returns the table as a hetkg-bench/v3 file with exact values —
// what `hetkg exp -bench-out` writes. A row is named by its label cells
// ("system=PBG,model=transe"); the others land under their keys in `values`,
// the wall-clock ones in `wall`.
func (t *Table) Snapshot() *benchfmt.File {
	f := &benchfmt.File{Name: t.ID, Scale: t.Scale, Seed: t.Seed, Meta: t.Meta}
	for _, row := range t.Rows {
		var name []string
		r := benchfmt.Row{Values: map[string]float64{}, Wall: map[string]float64{}}
		for _, c := range row {
			switch {
			case c.label:
				name = append(name, c.Key+"="+c.Text)
			case c.wall:
				r.Wall[c.Key] = c.Value
			default:
				r.Values[c.Key] = c.Value
			}
		}
		r.Name = strings.Join(name, ",")
		f.Rows = append(f.Rows, r)
	}
	return f
}

// Note appends a formatted note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell.Text) > widths[i] {
				widths[i] = len(cell.Text)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(rule)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		texts := make([]string, len(row))
		for i, cell := range row {
			texts[i] = cell.Text
		}
		if _, err := fmt.Fprintln(w, line(texts)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Render(&sb)
	return sb.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
