package core

import (
	"fmt"

	"hetkg/internal/dataset"
)

// Tables III, IV, V: link-prediction quality and training time per system,
// and Fig. 5: convergence (MRR over cumulative time).

func init() {
	register(Experiment{
		ID:    "table3",
		Title: "Link prediction on FB15k-like (TransE, DistMult) × 4 systems  [paper Table III]",
		Run: func(o Options) (*Table, error) {
			return accuracyTable("table3", "fb15k", []string{"transe", "distmult"}, o)
		},
	})
	register(Experiment{
		ID:    "table4",
		Title: "Link prediction on WN18-like (TransE, DistMult) × 4 systems  [paper Table IV]",
		Run: func(o Options) (*Table, error) {
			return accuracyTable("table4", "wn18", []string{"transe", "distmult"}, o)
		},
	})
	register(Experiment{
		ID:    "table5",
		Title: "Link prediction on Freebase-86m-like (TransE) × 4 systems  [paper Table V]",
		Run: func(o Options) (*Table, error) {
			return accuracyTable("table5", "freebase86m", []string{"transe"}, o)
		},
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Convergence: validation MRR vs cumulative training time per system  [paper Fig. 5]",
		Run:   runFig5,
	})
}

// accuracyTable trains every system × model combination on one dataset and
// reports the paper's columns: MRR, Hits@1, Hits@10, and (simulated) time.
func accuracyTable(id, ds string, models []string, o Options) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Link prediction on %s", ds),
		Header: []string{"System", "Model", "MRR", "Hits@1", "Hits@10", "Time(s)"},
	}
	for _, mdl := range models {
		for _, sys := range Systems() {
			o.logf("%s: %s / %s ...", id, sys, mdl)
			res, err := o.run(RunConfig{
				Dataset:   ds,
				Scale:     o.Scale,
				System:    sys,
				ModelName: mdl,
				Seed:      o.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("%s (%s/%s): %w", id, sys, mdl, err)
			}
			t.AddRow(string(sys), mdl,
				res.Final.MRR, res.Final.Hits[1], res.Final.Hits[10],
				Fmt("%.2f", res.Total().Seconds()).Wall())
		}
	}
	t.Note("paper shape: all systems reach comparable quality; HET-KG variants finish fastest, PBG slowest")
	t.Note("times are simulated cluster time: measured computation + cost-model communication (see DESIGN.md)")
	return t, nil
}

func runFig5(o Options) (*Table, error) {
	t := &Table{
		Title:  "Convergence on fb15k-like (TransE): MRR vs cumulative time",
		Header: []string{"System", "Epoch", "CumTime(s)", "MRR", "Loss"},
	}
	for _, sys := range Systems() {
		o.logf("fig5: %s ...", sys)
		res, err := o.run(RunConfig{
			Dataset:   "fb15k",
			Scale:     o.Scale,
			System:    sys,
			ModelName: "transe",
			Epochs:    fig5Epochs(o),
			Seed:      o.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("fig5 (%s): %w", sys, err)
		}
		for _, e := range res.Epochs {
			t.AddRow(string(sys), e.Epoch,
				Fmt("%.2f", e.CumTime.Seconds()).Wall(),
				e.MRR, Fmt("%.4f", e.Loss))
		}
	}
	t.Note("paper shape: all systems converge to similar MRR; HET-KG's curves reach it in less cumulative time")
	return t, nil
}

func fig5Epochs(o Options) int {
	if o.Scale == dataset.Tiny {
		return 4
	}
	return 6
}
