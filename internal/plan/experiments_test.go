package plan_test

// The paper's experiment registry at tiny scale. These are train.Run's
// end-to-end tests too — every training experiment is a plan of Run
// configurations — run from plan's external test package.

import (
	"strings"
	"testing"

	"hetkg/internal/dataset"
	"hetkg/internal/plan"
)

func tinyOpts() plan.Options {
	return plan.Options{Scale: dataset.Tiny, Seed: 7}
}

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
	for _, e := range plan.All() {
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

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact must have an experiment.
	want := []string{
		"table1", "table3", "table4", "table5", "table6", "table7",
		"fig2", "fig5", "fig6", "fig7", "fig8a", "fig8b", "fig8c", "fig9",
	}
	for _, id := range want {
		if _, ok := plan.ByID(id); !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(plan.All()) < len(want)+3 { // plus ablations
		t.Errorf("registry has %d experiments, want at least %d", len(plan.All()), len(want)+3)
	}
	ids := plan.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Error("IDs not sorted")
		}
	}
}

// runTiny runs one registered experiment at tiny scale and checks its row
// count.
func runTiny(t *testing.T, id string, rows int) *plan.Table {
	t.Helper()
	e, _ := plan.ByID(id)
	tab, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tab.Rows) != rows {
		t.Fatalf("%s rows = %d, want %d", id, len(tab.Rows), rows)
	}
	return tab
}

// The probes that train nothing run in -short too; the training sweeps are
// covered by TestEveryExperimentRunsAtTinyScale and the bench harness.
func TestFig2Experiment(t *testing.T) { runTiny(t, "fig2", 3) }

func TestTable6Experiment(t *testing.T) {
	// Belady's bound (last column) must dominate FIFO (second) on every
	// dataset, compared on the cells' exact values.
	for _, row := range runTiny(t, "table6", 3).Rows {
		if row[len(row)-1].Value < row[1].Value {
			t.Errorf("%s: Belady %s below FIFO %s", row[0].Text, row[len(row)-1].Text, row[1].Text)
		}
	}
}

func TestFig8cExperiment(t *testing.T) { runTiny(t, "fig8c", 5) }

func TestNegSamplingAblation(t *testing.T) { runTiny(t, "xablation-negsampling", 2) }

func TestTable1ExperimentTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	runTiny(t, "table1", 4)
}
