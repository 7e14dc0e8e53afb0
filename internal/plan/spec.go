package plan

import (
	"flag"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"

	"hetkg/internal/core"
	"hetkg/internal/dataset"
)

// RunSpec is the declarative surface of one training run: every knob a plan
// file or a `hetkg train` run flag may set, and nothing deployment-specific
// (shard addresses, checkpoint paths, observability sinks — those belong to
// the process, not the experiment). It is the single source of truth three
// consumers share, so they cannot drift:
//
//   - the YAML loader decodes plan `run:` and `sweep:` keys into it (the
//     `plan:"..."` tags name the keys; TestPlanKeysAreDocumented holds
//     DESIGN.md §14 to them);
//   - BindFlags registers the equivalent flags onto it, in two groups: the
//     run identity every process of a run shares (BindIdentity, which is
//     all `hetkg ps` binds) and the experiment knobs;
//   - RunConfig() is the one mapping from either source to core.RunConfig.
//
// Field semantics are documented on core.RunConfig; zero values defer to
// the scale-derived defaults there.
type RunSpec struct {
	Dataset     string  `plan:"dataset"`
	Scale       string  `plan:"scale"`
	System      string  `plan:"system"`
	Model       string  `plan:"model"`
	Loss        string  `plan:"loss"`
	Optimizer   string  `plan:"optimizer"`
	Margin      float64 `plan:"margin"`
	Dim         int     `plan:"dim"`
	LR          float64 `plan:"lr"`
	Epochs      int     `plan:"epochs"`
	Batch       int     `plan:"batch"`
	Negs        int     `plan:"negs"`
	Chunk       int     `plan:"chunk"`
	Machines    int     `plan:"machines"`
	Workers     int     `plan:"workers"`
	Partitioner string  `plan:"partitioner"`
	// Cache is the absolute hot-table capacity; CacheBudget the fractional
	// spelling (of the entity+relation universe). Cache wins when both set.
	Cache           int     `plan:"cache"`
	CacheBudget     float64 `plan:"cacheBudget"`
	Staleness       int     `plan:"staleness"`
	Prefetch        int     `plan:"prefetch"`
	EntityRatio     float64 `plan:"entityRatio"`
	NoHeterogeneity bool    `plan:"noHeterogeneity"`
	Codec           string  `plan:"codec"`
	TopKRatio       float64 `plan:"topkRatio"`
	Adversarial     float64 `plan:"adversarial"`
	DegreeNegatives bool    `plan:"degreeNegatives"`
	Parallelism     int     `plan:"parallelism"`
	EvalEvery       int     `plan:"evalEvery"`
	EvalMax         int     `plan:"evalMax"`
	Seed            int64   `plan:"seed"`
}

// DefaultSpec returns the repo-wide run defaults — identical to the
// `hetkg train` flag defaults, because BindFlags registers these values.
func DefaultSpec() RunSpec {
	return RunSpec{
		Dataset:     "fb15k",
		Scale:       "small",
		System:      "hetkg-d",
		Model:       "transe",
		Loss:        "logistic",
		Optimizer:   "adagrad",
		Margin:      1.0,
		LR:          0.1,
		Negs:        8,
		Chunk:       8,
		Machines:    4,
		Workers:     1,
		Partitioner: "metis",
		Staleness:   8,
		Prefetch:    16,
		EntityRatio: 0.25,
		Seed:        42,
	}
}

// Normalize fills every defaulted field, so two specs that differ only in
// spelling out a default hash identically. Fields left zero after
// Normalize (dim, epochs, batch, cache, ...) mean "scale-derived default"
// and hash as zero — core resolves them deterministically from Scale.
func (s *RunSpec) Normalize() {
	d := DefaultSpec()
	v := reflect.ValueOf(s).Elem()
	dv := reflect.ValueOf(d)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			v.Field(i).Set(dv.Field(i))
		}
	}
}

// systems maps the flag/plan spelling to the core system.
var systems = map[string]core.System{
	"pbg":     core.SystemPBG,
	"dglke":   core.SystemDGLKE,
	"hetkg-c": core.SystemHETKGC,
	"hetkg-d": core.SystemHETKGD,
}

// ParseSystem resolves a system name ("pbg", "dglke", "hetkg-c", "hetkg-d").
func ParseSystem(name string) (core.System, error) {
	sys, ok := systems[name]
	if !ok {
		names := make([]string, 0, len(systems))
		for n := range systems {
			names = append(names, n)
		}
		sort.Strings(names)
		return "", fmt.Errorf("plan: unknown system %q (have %s)", name, strings.Join(names, ", "))
	}
	return sys, nil
}

// RunConfig maps the spec to an executable core.RunConfig — the one
// flag-or-YAML→config builder. Deployment fields (ShardAddrs, JoinAddr,
// timelines, spans, metrics) are left zero for the caller to overlay.
func (s RunSpec) RunConfig() (core.RunConfig, error) {
	s.Normalize()
	sys, err := ParseSystem(s.System)
	if err != nil {
		return core.RunConfig{}, err
	}
	scale, err := dataset.ParseScale(s.Scale)
	if err != nil {
		return core.RunConfig{}, err
	}
	return core.RunConfig{
		Dataset:                 s.Dataset,
		Scale:                   scale,
		System:                  sys,
		ModelName:               s.Model,
		LossName:                s.Loss,
		OptimizerName:           s.Optimizer,
		Margin:                  float32(s.Margin),
		Dim:                     s.Dim,
		LR:                      float32(s.LR),
		Epochs:                  s.Epochs,
		BatchSize:               s.Batch,
		NegPerPos:               s.Negs,
		ChunkSize:               s.Chunk,
		Machines:                s.Machines,
		WorkersPerMachine:       s.Workers,
		PartitionerName:         s.Partitioner,
		CacheCapacity:           s.Cache,
		CacheBudget:             s.CacheBudget,
		CacheSyncEvery:          s.Staleness,
		CachePrefetchD:          s.Prefetch,
		EntityFraction:          s.EntityRatio,
		NoHeterogeneity:         s.NoHeterogeneity,
		Codec:                   s.Codec,
		TopKRatio:               s.TopKRatio,
		AdversarialTemp:         float32(s.Adversarial),
		DegreeWeightedNegatives: s.DegreeNegatives,
		Parallelism:             s.Parallelism,
		EvalEvery:               s.EvalEvery,
		EvalMax:                 s.EvalMax,
		Seed:                    s.Seed,
	}, nil
}

// The two run keys the experiments sweep that are also flag names several
// verbs share: declared once, for the flag and the sweep axis alike.
const (
	keyDataset  = "dataset"
	keyMachines = "machines"
)

// flagDecl declares one run flag: the RunSpec field it sets (a pointer into
// the spec being bound), its name, and its help text. The default is the
// field's value at bind time, i.e. DefaultSpec's.
type flagDecl struct {
	field any
	name  string
	usage string
}

// identityFlags declares the run-identity group: the flags every process of
// one run — each `hetkg ps` shard, each `hetkg train` worker — must be given
// identical values for, because dataset generation, partitioning and row
// initialisation are derived from them independently in each process (the †
// flags of OPERATIONS.md). This is their only declaration.
func (s *RunSpec) identityFlags() []flagDecl {
	return []flagDecl{
		{&s.Dataset, keyDataset, "dataset preset: fb15k | wn18 | freebase86m"},
		{&s.Scale, "scale", "dataset scale: tiny | small | paper"},
		{&s.Model, "model", "model: transe | transe_l2 | distmult | transh | complex (fixes the row widths)"},
		{&s.Dim, "dim", "embedding dimension d (0 = scale default)"},
		{&s.LR, "lr", "optimizer learning rate"},
		{&s.Optimizer, "optimizer", "optimizer: adagrad | sgd | adam"},
		{&s.Machines, keyMachines, "cluster machines (PS shards)"},
		{&s.Partitioner, "partitioner", "graph partitioner: metis | ldg | random"},
		{&s.Seed, "seed", "random seed"},
	}
}

// experimentFlags declares the rest of the run surface: knobs only the
// training loop reads, so shards neither need nor accept them.
func (s *RunSpec) experimentFlags() []flagDecl {
	return []flagDecl{
		{&s.System, "system", "system: pbg | dglke | hetkg-c | hetkg-d (elastic mode supports the latter three)"},
		{&s.Loss, "loss", "loss: logistic | ranking"},
		{&s.Margin, "margin", "ranking-loss margin γ"},
		{&s.Epochs, "epochs", "training epochs (0 = scale default)"},
		{&s.Batch, "batch", "positive batch size b_p (0 = scale default)"},
		{&s.Negs, "negs", "negatives per positive b_n"},
		{&s.Chunk, "chunk", "negative-sampling chunk size b_c"},
		{&s.Workers, "workers", "workers per machine (elastic mode requires 1)"},
		{&s.Cache, "cache", "hot-embedding table capacity k (0 = -cache-budget, else 5% of ids)"},
		{&s.CacheBudget, "cache-budget", "hot table size as a fraction of the entity+relation universe (0 = default; ignored when -cache is set)"},
		{&s.Staleness, "staleness", "staleness bound P (cache refresh interval; -1 = unbounded)"},
		{&s.Prefetch, "prefetch", "prefetch depth D (DPS rebuild interval)"},
		{&s.EntityRatio, "entity-ratio", "entity share of the cache (heterogeneity quota)"},
		{&s.NoHeterogeneity, "no-heterogeneity", "disable the entity/relation quota (HET-KG-N)"},
		{&s.Codec, "codec", "wire codec profile: fp32 | fp16 | int8 | delta-int8 | topk | auto (default fp32)"},
		{&s.TopKRatio, "topk-ratio", "kept gradient fraction per row for -codec topk (0 = default 0.125)"},
		{&s.Adversarial, "adversarial", "self-adversarial negative sampling temperature (0 = off)"},
		{&s.DegreeNegatives, "degree-negatives", "corrupt with degree^0.75-weighted entities (hard negatives)"},
		{&s.Parallelism, "parallelism", "cores for batch compute and evaluation (0 = all; results identical at any value)"},
		{&s.EvalEvery, "eval-every", "epochs between validation evaluations (0 = every epoch; larger than -epochs defers to the final evaluation only)"},
		{&s.EvalMax, "eval-max", "validation triples scored per evaluation (0 = default 300)"},
	}
}

// bind registers decls on fs — all of them, or only those whose field is
// listed in only.
func bind(fs *flag.FlagSet, decls []flagDecl, only []any) {
	for _, d := range decls {
		if len(only) > 0 && !slices.Contains(only, d.field) {
			continue
		}
		switch p := d.field.(type) {
		case *string:
			fs.StringVar(p, d.name, *p, d.usage)
		case *int:
			fs.IntVar(p, d.name, *p, d.usage)
		case *int64:
			fs.Int64Var(p, d.name, *p, d.usage)
		case *float64:
			fs.Float64Var(p, d.name, *p, d.usage)
		case *bool:
			fs.BoolVar(p, d.name, *p, d.usage)
		default:
			panic(fmt.Sprintf("plan: flag -%s bound to unsupported field type %T", d.name, d.field))
		}
	}
}

// BindIdentity registers the run-identity flags onto fs, bound to s: the
// whole group (what `hetkg ps` takes), or only the flags of the listed
// fields — pointers into s, e.g. s.BindIdentity(fs, &s.Scale, &s.Seed) — for
// a verb that reads just those.
func (s *RunSpec) BindIdentity(fs *flag.FlagSet, only ...any) {
	bind(fs, s.identityFlags(), only)
}

// BindFlags registers every run flag — the identity group plus the
// experiment group, `hetkg train`'s run surface — onto fs, bound to the
// returned spec. Names and defaults equal the plan-file `run:` keys'.
func BindFlags(fs *flag.FlagSet) *RunSpec {
	s := DefaultSpec()
	s.BindIdentity(fs)
	bind(fs, s.experimentFlags(), nil)
	return &s
}

// specFields enumerates the plan-tagged fields, sorted by key — the shared
// walk under decoding, hashing, and key listing.
func specFields() []reflect.StructField {
	t := reflect.TypeOf(RunSpec{})
	fields := make([]reflect.StructField, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).Tag.Get("plan") != "" {
			fields = append(fields, t.Field(i))
		}
	}
	sort.Slice(fields, func(i, j int) bool {
		return fields[i].Tag.Get("plan") < fields[j].Tag.Get("plan")
	})
	return fields
}

// SpecKeys lists every plan key, sorted — the schema surface DESIGN.md §14
// documents.
func SpecKeys() []string {
	fields := specFields()
	keys := make([]string, len(fields))
	for i, f := range fields {
		keys[i] = f.Tag.Get("plan")
	}
	return keys
}

// setSpecKey assigns one decoded YAML value to its spec field.
func setSpecKey(s *RunSpec, key string, val any) error {
	for _, f := range specFields() {
		if f.Tag.Get("plan") != key {
			continue
		}
		fv := reflect.ValueOf(s).Elem().FieldByIndex(f.Index)
		return coerce(fv, key, val)
	}
	return fmt.Errorf("plan: unknown run key %q (have %s)", key, strings.Join(SpecKeys(), ", "))
}

// coerce converts a parsed YAML scalar into a spec field.
func coerce(fv reflect.Value, key string, val any) error {
	if val == nil {
		return fmt.Errorf("plan: key %q has no value", key)
	}
	switch fv.Kind() {
	case reflect.String:
		s, ok := val.(string)
		if !ok {
			return fmt.Errorf("plan: key %q wants a string, got %v (%T)", key, val, val)
		}
		fv.SetString(s)
	case reflect.Int, reflect.Int64:
		n, ok := val.(int64)
		if !ok {
			return fmt.Errorf("plan: key %q wants an integer, got %v (%T)", key, val, val)
		}
		fv.SetInt(n)
	case reflect.Float64:
		switch n := val.(type) {
		case float64:
			fv.SetFloat(n)
		case int64:
			fv.SetFloat(float64(n))
		default:
			return fmt.Errorf("plan: key %q wants a number, got %v (%T)", key, val, val)
		}
	case reflect.Bool:
		b, ok := val.(bool)
		if !ok {
			return fmt.Errorf("plan: key %q wants true/false, got %v (%T)", key, val, val)
		}
		fv.SetBool(b)
	default:
		return fmt.Errorf("plan: key %q has unsupported field kind %s", key, fv.Kind())
	}
	return nil
}
