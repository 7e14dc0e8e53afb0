package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"hetkg/internal/ckpt"
	"hetkg/internal/dataset"
	"hetkg/internal/plan/benchfmt"
)

func tinyOpts() Options {
	return Options{Scale: dataset.Tiny, Seed: 7}
}

func TestRunAllSystemsTiny(t *testing.T) {
	for _, sys := range Systems() {
		t.Run(string(sys), func(t *testing.T) {
			res, err := Run(RunConfig{
				Dataset: "fb15k",
				Scale:   dataset.Tiny,
				System:  sys,
				Epochs:  2,
				Seed:    7,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.System != string(sys) {
				t.Errorf("System = %q, want %q", res.System, sys)
			}
			if len(res.Epochs) != 2 {
				t.Errorf("epochs = %d", len(res.Epochs))
			}
			if res.Final.MRR <= 0 {
				t.Errorf("MRR = %v", res.Final.MRR)
			}
		})
	}
}

func TestRunUnknownInputs(t *testing.T) {
	if _, err := Run(RunConfig{Dataset: "nope", System: SystemDGLKE}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := Run(RunConfig{Dataset: "fb15k", Scale: dataset.Tiny, System: "nope"}); err == nil {
		t.Error("unknown system accepted")
	}
	if _, err := Run(RunConfig{Dataset: "fb15k", Scale: dataset.Tiny, System: SystemDGLKE, ModelName: "nope"}); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := Run(RunConfig{Dataset: "fb15k", Scale: dataset.Tiny, System: SystemDGLKE, LossName: "nope"}); err == nil {
		t.Error("unknown loss accepted")
	}
	if _, err := Run(RunConfig{Dataset: "fb15k", Scale: dataset.Tiny, System: SystemDGLKE, PartitionerName: "nope"}); err == nil {
		t.Error("unknown partitioner accepted")
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact must have an experiment.
	want := []string{
		"table1", "table3", "table4", "table5", "table6", "table7",
		"fig2", "fig5", "fig6", "fig7", "fig8a", "fig8b", "fig8c", "fig9",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(All()) < len(want)+3 { // plus ablations
		t.Errorf("registry has %d experiments, want at least %d", len(All()), len(want)+3)
	}
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Error("IDs not sorted")
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"A", "LongColumn"},
	}
	tab.AddRow("hello", 1.23456)
	tab.AddRow(42, Dur(1500*time.Microsecond).Wall())
	tab.Note("a note %d", 1)
	s := tab.String()
	if !strings.Contains(s, "== x: demo ==") {
		t.Errorf("missing title in:\n%s", s)
	}
	if !strings.Contains(s, "1.235") {
		t.Errorf("float not formatted in:\n%s", s)
	}
	if !strings.Contains(s, "note: a note 1") {
		t.Errorf("missing note in:\n%s", s)
	}
	lines := strings.Split(s, "\n")
	if len(lines) < 6 {
		t.Errorf("too few lines:\n%s", s)
	}
	// The snapshot is the same rows, unrounded: labels name the row, a
	// duration is keyed _ms, and a wall cell stays out of the values.
	want := []benchfmt.Row{
		{Name: "a=hello", Values: map[string]float64{"longcolumn": 1.23456}, Wall: map[string]float64{}},
		{Name: "a=42", Values: map[string]float64{}, Wall: map[string]float64{"longcolumn_ms": 1.5}},
	}
	if got := tab.Snapshot(); got.Name != "x" || !reflect.DeepEqual(got.Rows, want) {
		t.Errorf("snapshot = %+v, want rows %+v", got, want)
	}
}

// Exercise the fast experiments end-to-end at tiny scale; the heavyweight
// training sweeps are covered by the bench harness.
func TestFig2Experiment(t *testing.T) {
	e, _ := ByID("fig2")
	tab, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatalf("fig2: %v", err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("fig2 rows = %d, want 3 datasets", len(tab.Rows))
	}
}

func TestTable6Experiment(t *testing.T) {
	e, _ := ByID("table6")
	tab, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatalf("table6: %v", err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("table6 rows = %d", len(tab.Rows))
	}
	// Belady's bound (last column) must dominate FIFO (second) on every
	// dataset, compared on the cells' exact values.
	for _, row := range tab.Rows {
		if row[len(row)-1].Value < row[1].Value {
			t.Errorf("%s: Belady %s below FIFO %s", row[0].Text, row[len(row)-1].Text, row[1].Text)
		}
	}
}

func TestFig8cExperiment(t *testing.T) {
	e, _ := ByID("fig8c")
	tab, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatalf("fig8c: %v", err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("fig8c rows = %d", len(tab.Rows))
	}
}

func TestNegSamplingAblation(t *testing.T) {
	e, _ := ByID("xablation-negsampling")
	tab, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatalf("xablation-negsampling: %v", err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestTable1ExperimentTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	e, _ := ByID("table1")
	tab, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatalf("table1: %v", err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("table1 rows = %d", len(tab.Rows))
	}
}

func TestInverseRelationsTraining(t *testing.T) {
	res, err := Run(RunConfig{
		Dataset:          "fb15k",
		Scale:            dataset.Tiny,
		System:           SystemHETKGC,
		Epochs:           2,
		InverseRelations: true,
		Seed:             7,
	})
	if err != nil {
		t.Fatalf("inverse-relation run: %v", err)
	}
	g, _ := dataset.ByName("fb15k", dataset.Tiny, 7)
	if res.Relations.Rows != 2*g.NumRel {
		t.Errorf("relation table rows = %d, want %d (doubled)", res.Relations.Rows, 2*g.NumRel)
	}
	if res.Final.MRR <= 0 {
		t.Error("inverse-relation run did not evaluate")
	}
}

func TestResumeFromCheckpoint(t *testing.T) {
	base := RunConfig{
		Dataset: "fb15k", Scale: dataset.Tiny, System: SystemDGLKE,
		Epochs: 2, EvalEvery: -1, Seed: 7,
	}
	first, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	resumed := base
	resumed.Resume = &ckpt.Checkpoint{
		ModelName: "transe",
		Dim:       first.Entities.Dim,
		Entities:  first.Entities,
		Relations: first.Relations,
	}
	second, err := Run(resumed)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	// A resumed run starts from trained embeddings, so its first-epoch
	// loss must be far below a fresh run's first-epoch loss.
	if second.Epochs[0].Loss >= first.Epochs[0].Loss*0.8 {
		t.Errorf("resume did not carry state: fresh first-epoch loss %.4f, resumed %.4f",
			first.Epochs[0].Loss, second.Epochs[0].Loss)
	}
	// Model mismatch must be rejected.
	bad := resumed
	bad.Resume = &ckpt.Checkpoint{ModelName: "distmult", Entities: first.Entities, Relations: first.Relations}
	if _, err := Run(bad); err == nil {
		t.Error("model-mismatched checkpoint accepted")
	}
	// Shape mismatch must be rejected.
	bad2 := resumed
	bad2.Dim = 8
	if _, err := Run(bad2); err == nil {
		t.Error("dim-mismatched checkpoint accepted")
	}
}
