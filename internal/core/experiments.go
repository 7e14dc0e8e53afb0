package core

import (
	"fmt"
	"sort"
)

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	// ID is the registry key ("table3", "fig8a", ...).
	ID string
	// Title describes the paper artifact.
	Title string
	// Run executes the experiment.
	Run func(Options) (*Table, error)
}

// registry holds all experiments keyed by ID.
var registry = map[string]Experiment{}

// register adds e to the registry behind the one place that fills the
// options' defaults and stamps the table with its identity: the experiment's
// ID and the scale and seed it ran at.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("core: duplicate experiment %q", e.ID))
	}
	run := e.Run
	e.Run = func(o Options) (*Table, error) {
		if o.Seed == 0 {
			o.Seed = 42
		}
		t, err := run(o)
		if t != nil {
			t.ID, t.Scale, t.Seed = e.ID, o.Scale.String(), o.Seed
		}
		return t, err
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
