package plan

import (
	"fmt"

	"hetkg/internal/core"
	"hetkg/internal/dataset"
)

// Tables III, IV, V: link-prediction quality and training time per system,
// and Fig. 5: convergence (MRR over cumulative time).

func init() {
	register(Experiment{
		ID:    "table3",
		Title: "Link prediction on FB15k-like (TransE, DistMult) × 4 systems  [paper Table III]",
		Run:   accuracyTable("fb15k", "transe", "distmult"),
	})
	register(Experiment{
		ID:    "table4",
		Title: "Link prediction on WN18-like (TransE, DistMult) × 4 systems  [paper Table IV]",
		Run:   accuracyTable("wn18", "transe", "distmult"),
	})
	register(Experiment{
		ID:    "table5",
		Title: "Link prediction on Freebase-86m-like (TransE) × 4 systems  [paper Table V]",
		Run:   accuracyTable("freebase86m", "transe"),
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Convergence: validation MRR vs cumulative training time per system  [paper Fig. 5]",
		Run:   runFig5,
	})
}

// accuracyTable trains every model × system combination on one dataset and
// reports the paper's columns: MRR, Hits@1, Hits@10, and (simulated) time.
func accuracyTable(ds string, models ...string) func(Options) (*Table, error) {
	return func(o Options) (*Table, error) {
		t := &Table{
			Title:  fmt.Sprintf("Link prediction on %s", ds),
			Header: []string{"System", "Model", "MRR", "Hits@1", "Hits@10", "Time(s)"},
		}
		t.Note("paper shape: all systems reach comparable quality; HET-KG variants finish fastest, PBG slowest")
		t.Note("times are simulated cluster time: measured computation + cost-model communication (see DESIGN.md)")
		return t, o.sweep(Plan{
			Base:  core.RunConfig{Dataset: ds},
			Sweep: []SweepAxis{axis("model", models...), allSystems},
		}, func(r outcome) {
			res := r.Result
			t.AddRow(res.System, r.Spec.ModelName, res.Final.MRR, res.Final.Hits[1], res.Final.Hits[10],
				Fmt("%.2f", res.Total().Seconds()).Wall())
		})
	}
}

func runFig5(o Options) (*Table, error) {
	t := &Table{
		Title:  "Convergence on fb15k-like (TransE): MRR vs cumulative time",
		Header: []string{"System", "Epoch", "CumTime(s)", "MRR", "Loss"},
	}
	t.Note("paper shape: all systems converge to similar MRR; HET-KG's curves reach it in less cumulative time")
	return t, o.sweep(Plan{
		Base:  core.RunConfig{Dataset: "fb15k", Epochs: fig5Epochs(o)},
		Sweep: []SweepAxis{allSystems},
	}, func(r outcome) {
		for _, e := range r.Result.Epochs {
			t.AddRow(r.Result.System, e.Epoch, Fmt("%.2f", e.CumTime.Seconds()).Wall(), e.MRR, Fmt("%.4f", e.Loss))
		}
	})
}

func fig5Epochs(o Options) int {
	if o.Scale == dataset.Tiny {
		return 4
	}
	return 6
}
