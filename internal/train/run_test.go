package train

import (
	"slices"
	"testing"

	"hetkg/internal/ckpt"
	"hetkg/internal/dataset"
)

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

// TestRankingLossDefaultsToMarginOne: a run that leaves Margin zero trains
// with the default table's margin 1, as `hetkg train -loss ranking` does —
// not with margin 0, which would train a different model.
func TestRankingLossDefaultsToMarginOne(t *testing.T) {
	rc := RunConfig{LossName: "ranking", Scale: dataset.Tiny, System: SystemDGLKE, Machines: 1, Epochs: 1, EvalEvery: -1}
	implicit, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Margin = 1
	explicit, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if implicit.Epochs[0].Loss != explicit.Epochs[0].Loss || !slices.Equal(implicit.Entities.Data, explicit.Entities.Data) {
		t.Errorf("zero margin trained loss %v, margin 1 loss %v; want the same run", implicit.Epochs[0].Loss, explicit.Epochs[0].Loss)
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
