package core

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"hetkg/internal/plan/benchfmt"
)

// Table is one experiment's output: a titled grid of cells matching the
// corresponding table or figure in the paper, plus free-form notes (the
// workload, parameters, and expected shape).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Bench, when an experiment fills it, is the table's machine-readable
	// hetkg-bench/v2 snapshot with exact (unrounded) values. Experiments
	// that don't are still benchable: BenchFile falls back to parsing the
	// rendered cells.
	Bench *benchfmt.File
}

// BenchFile returns the table's perf snapshot: the experiment-authored one
// when present, else a best-effort conversion of the rendered grid (first
// column = row name, numeric cells = values). This is what `hetkg exp
// -bench-out` writes as BENCH_<id>.json for every experiment.
func (t *Table) BenchFile() *benchfmt.File {
	if t.Bench != nil {
		return t.Bench
	}
	return benchfmt.FromTable(t.ID, t.Header, t.Rows)
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
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
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
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
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
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

// MarshalJSON renders the table as a JSON object with id, title, header,
// rows, and notes — machine-readable output for plotting pipelines.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Header, t.Rows, t.Notes})
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
