package core

import (
	"strings"
	"testing"
)

// TestEveryExperimentRunsAtTinyScale executes the whole registry — every
// paper table/figure plus the ablations — end to end at tiny scale. It is
// the harness's own integration test: an experiment that errors, returns an
// empty table, or loses its header/row shape fails here before it can fail
// in a long bench run. The same pass checks the table's other view: a
// snapshot whose rows are distinctly named and whose cells all found a key.
func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment registry (~15s)")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(tinyOpts())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tab.ID != e.ID {
				t.Errorf("table ID %q != experiment ID %q", tab.ID, e.ID)
			}
			if len(tab.Header) < 2 {
				t.Errorf("%s header too narrow: %v", e.ID, tab.Header)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Errorf("%s row %d has %d cells, header has %d",
						e.ID, i, len(row), len(tab.Header))
				}
				for j, cell := range row {
					if strings.TrimSpace(cell.Text) == "" {
						t.Errorf("%s cell (%d,%d) empty", e.ID, i, j)
					}
				}
			}
			if tab.String() == "" {
				t.Errorf("%s renders empty", e.ID)
			}
			snap := tab.Snapshot()
			if snap.Name != e.ID || snap.Scale != "tiny" || snap.Seed != 7 {
				t.Errorf("%s snapshot provenance = %q %q %d", e.ID, snap.Name, snap.Scale, snap.Seed)
			}
			names := map[string]bool{}
			for i, row := range snap.Rows {
				if row.Name == "" || names[row.Name] {
					t.Errorf("%s snapshot row %d named %q: empty or repeated", e.ID, i, row.Name)
				}
				names[row.Name] = true
				if len(row.Values)+len(row.Wall) == 0 {
					t.Errorf("%s snapshot row %q measures nothing", e.ID, row.Name)
				}
				for key := range row.Values {
					if key == "" {
						t.Errorf("%s snapshot row %q has a keyless value", e.ID, row.Name)
					}
				}
			}
		})
	}
}
