package plan

import (
	"fmt"
	"sort"

	"hetkg/internal/dataset"
	"hetkg/internal/train"
)

// Experiment regenerates one table or figure of the paper. A training
// experiment is a Plan literal run through Execute with a view that fills
// its Table; the probes that train nothing (census, policy replay) are plain
// Go.
type Experiment struct {
	// ID is the registry key ("table3", "fig8a", ...).
	ID string
	// Title describes the paper artifact.
	Title string
	// Run executes the experiment.
	Run func(Options) (*Table, error)
}

// Options parameterizes an experiment invocation.
type Options struct {
	// Scale selects workload sizes (the zero Scale is Small; benches use
	// Tiny).
	Scale dataset.Scale
	// Seed drives all randomness (zero means 42, the default table's, as it
	// does for a run).
	Seed int64
	// ApplyOptions is how the experiment's plans execute: progress logging
	// and per-run timelines and span dumps.
	ApplyOptions
	// id names the experiment's plans (set by the registry).
	id string
}

// sweep executes p as the experiment's plan — named for it, at the options'
// scale and seed — handing each run to view in matrix order.
func (o Options) sweep(p Plan, view func(outcome)) error {
	p.Name = o.id
	p.Base.Scale, p.Base.Seed = o.Scale, o.Seed
	return execute(&p, o.ApplyOptions, view)
}

// allSystems sweeps the paper's four systems in its table order.
var allSystems = axis("system", "pbg", "dglke", "hetkg-c", "hetkg-d")

// registry holds all experiments keyed by ID.
var registry = map[string]Experiment{}

// register adds e to the registry behind the one place that resolves the
// options through the default table and stamps the table with its identity:
// the experiment's ID and the scale and seed it ran at. A failed experiment
// returns no table.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("plan: duplicate experiment %q", e.ID))
	}
	run := e.Run
	e.Run = func(o Options) (*Table, error) {
		rc := train.RunConfig{Seed: o.Seed}
		rc.Normalize()
		o.Seed, o.id = rc.Seed, e.ID
		t, err := run(o)
		if err != nil {
			return nil, err
		}
		t.ID, t.Scale, t.Seed = e.ID, o.Scale.String(), o.Seed
		return t, nil
	}
	registry[e.ID] = e
}

// ByID looks up an experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment sorted by ID (tables first, then figures,
// then ablations, by construction of the IDs).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IDs returns all experiment IDs in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
