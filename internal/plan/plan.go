// Package plan is the declarative experiment layer. A Plan declares a run
// configuration plus a sweep matrix — in a hetkg.yml file, or as a Go
// literal for each training experiment of the paper's registry (exp_*.go) —
// and resolves into a deterministic run list with canonical config hashes.
// One executor trains the list in-process, generation-heavy intermediates served
// from the content-addressed artifact cache, and hands each run to a view:
// `hetkg apply`'s default view emits one hetkg-bench/v3 snapshot that
// `hetkg compare` holds equal to a committed baseline, and an experiment's
// view fills the paper's table. DESIGN.md §4 indexes the experiments and §14
// documents the schema, hash scheme, and cache layout.
package plan

import (
	"fmt"
	"math/big"
	"os"
	"sort"
	"strconv"
	"strings"

	"hetkg/internal/core"
)

// Plan is one sweep — a parsed hetkg.yml or an experiment's Go literal: a
// named base configuration and an optional sweep matrix.
type Plan struct {
	// Name identifies the plan; the BENCH snapshot is BENCH_<Name>.json.
	Name string
	// Base is the `run:` section; a knob it leaves zero takes the default
	// table's value (core.RunConfig.Normalize).
	Base core.RunConfig
	// Sweep is the `sweep:` matrix, axes sorted by key in a parsed file and
	// in loop order in a literal. Every resolved run is Base plus one
	// assignment from each axis.
	Sweep []SweepAxis
}

// SweepAxis is one swept key and its values, in declaration order.
type SweepAxis struct {
	Key    string
	Values []any
}

// axis builds a sweep axis from Go values, holding them as the YAML decoder
// would (an int as int64).
func axis[T int | float64 | string | bool](key string, vals ...T) SweepAxis {
	ax := SweepAxis{Key: key}
	for _, v := range vals {
		var a any = v
		if n, ok := a.(int); ok {
			a = int64(n)
		}
		ax.Values = append(ax.Values, a)
	}
	return ax
}

// maxRuns bounds the run count a plan may resolve to. A sweep's runs are the
// product of its axis lengths, so a short file can name more runs than any
// machine could allocate, let alone train.
const maxRuns = 10000

// Run is one resolved run of a plan's matrix.
type Run struct {
	// Name is the sweep assignment ("cacheBudget=0.01,codec=fp32"), or
	// "base" for a sweepless plan — the BENCH row name.
	Name string
	// Spec is the normalized configuration.
	Spec core.RunConfig
	// Hash is Hash(Spec), the canonical config hash.
	Hash string
}

// ShortHash is the display form of the run's hash (12 hex chars, like git's
// abbreviations).
func (r Run) ShortHash() string { return r.Hash[:12] }

// Load reads and parses a plan file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return p, nil
}

// Parse parses plan source. Unknown keys anywhere are errors — a typoed
// knob must fail loudly, not silently fall back to a default.
func Parse(src []byte) (*Plan, error) {
	doc, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	p := &Plan{}
	for key, val := range doc {
		switch key {
		case "plan":
			name, ok := val.(string)
			if !ok || name == "" {
				return nil, fmt.Errorf("plan: `plan:` must name the plan (a non-empty string)")
			}
			p.Name = name
		case "run":
			if val == nil {
				continue
			}
			m, ok := val.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("plan: `run:` must be a mapping of run keys")
			}
			for k, v := range m {
				if err := setKey(&p.Base, k, v); err != nil {
					return nil, err
				}
			}
		case "sweep":
			if val == nil {
				continue
			}
			m, ok := val.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("plan: `sweep:` must be a mapping of run keys to value lists")
			}
			axes, err := parseSweep(m)
			if err != nil {
				return nil, err
			}
			p.Sweep = axes
		default:
			return nil, fmt.Errorf("plan: unknown top-level key %q (have plan, run, sweep)", key)
		}
	}
	if p.Name == "" {
		return nil, fmt.Errorf("plan: missing `plan:` name")
	}
	if !validPlanName(p.Name) {
		return nil, fmt.Errorf("plan: name %q must be letters, digits, - or _ (it names BENCH_<plan>.json)", p.Name)
	}
	return p, nil
}

// parseSweep validates the matrix: every axis must be a known run key with
// a non-empty list of scalars, each of which must coerce into the field.
func parseSweep(m map[string]any) ([]SweepAxis, error) {
	axes := make([]SweepAxis, 0, len(m))
	for k, v := range m {
		list, ok := v.([]any)
		if !ok {
			return nil, fmt.Errorf("plan: sweep key %q must list values ([a, b] or `- a` items)", k)
		}
		if len(list) == 0 {
			return nil, fmt.Errorf("plan: sweep key %q has no values", k)
		}
		seen := map[string]bool{}
		for _, item := range list {
			var probe core.RunConfig
			if err := setKey(&probe, k, item); err != nil {
				return nil, fmt.Errorf("%w (sweep key %q)", err, k)
			}
			// Run names are snapshot row names, which must be unique.
			name := scalarString(item)
			if seen[name] {
				return nil, fmt.Errorf("plan: sweep key %q lists %s twice", k, name)
			}
			seen[name] = true
		}
		axes = append(axes, SweepAxis{Key: k, Values: list})
	}
	sort.Slice(axes, func(i, j int) bool { return axes[i].Key < axes[j].Key })
	return axes, nil
}

// Resolve expands the sweep matrix into the deterministic run list: axes in
// the plan's order (sorted by key in a parsed file), the cartesian product
// enumerated odometer-style with the last axis fastest, each run named by
// its assignment and stamped with its canonical config hash. A matrix of
// more than maxRuns runs is refused before anything is allocated for it.
func (p *Plan) Resolve() ([]Run, error) {
	if len(p.Sweep) == 0 {
		spec := p.Base
		spec.Normalize()
		return []Run{{Name: "base", Spec: spec, Hash: Hash(spec)}}, nil
	}
	counts := make([]int, len(p.Sweep))
	total := big.NewInt(1)
	for i, ax := range p.Sweep {
		if counts[i] = len(ax.Values); counts[i] == 0 {
			return nil, fmt.Errorf("plan %s: sweep key %q has no values", p.Name, ax.Key)
		}
		total.Mul(total, big.NewInt(int64(counts[i])))
	}
	if !total.IsInt64() || total.Int64() > maxRuns {
		return nil, fmt.Errorf("plan %s: the sweep matrix has %s runs, more than the %d a plan may resolve to", p.Name, total, maxRuns)
	}
	runs := make([]Run, 0, total.Int64())
	idx := make([]int, len(p.Sweep))
	for {
		spec := p.Base
		parts := make([]string, len(p.Sweep))
		for i, ax := range p.Sweep {
			val := ax.Values[idx[i]]
			if err := setKey(&spec, ax.Key, val); err != nil {
				return nil, err
			}
			parts[i] = ax.Key + "=" + scalarString(val)
		}
		spec.Normalize()
		runs = append(runs, Run{Name: strings.Join(parts, ","), Spec: spec, Hash: Hash(spec)})
		// Advance the odometer, last axis fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < counts[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return runs, nil
		}
	}
}

// scalarString renders a sweep value for run names, matching the canonical
// number formatting so names are stable across parses.
func scalarString(v any) string {
	switch n := v.(type) {
	case string:
		return n
	case int64:
		return strconv.FormatInt(n, 10)
	case float64:
		return strconv.FormatFloat(n, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(n)
	default:
		return fmt.Sprint(v)
	}
}

// validPlanName keeps plan names path- and row-safe.
func validPlanName(s string) bool {
	for _, r := range s {
		ok := r == '-' || r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}
