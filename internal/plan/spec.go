package plan

import (
	"encoding"
	"flag"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"

	"hetkg/internal/core"
	"hetkg/internal/model"
)

// A run's declarative knobs are the plan-tagged fields of core.RunConfig, and
// this file holds three of their consumers (the hash is the fourth, hash.go):
//
//   - the YAML loader decodes plan `run:` and `sweep:` keys into them by tag
//     (setKey; TestPlanKeysAreDocumented holds DESIGN.md §14 to the tags);
//   - BindFlags registers them as `hetkg train`'s run flags, in two groups:
//     the run identity every process of a run shares (BindIdentity, which
//     is all `hetkg ps` binds) and the experiment knobs;
//   - SpecKeys lists them.
//
// Nothing deployment-specific (shard addresses, checkpoint paths,
// observability sinks) is tagged: those belong to the process, not the
// experiment.

// The two run keys the experiments sweep that are also flag names several
// verbs share: declared once, for the flag and the sweep axis alike.
const (
	keyDataset  = "dataset"
	keyMachines = "machines"
)

// flagDecl declares one run flag: the RunConfig field it sets (a pointer into
// the config being bound), its name, and its help text. The default is the
// field's value at bind time, i.e. the default table's.
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
func identityFlags(rc *core.RunConfig) []flagDecl {
	return []flagDecl{
		{&rc.Dataset, keyDataset, "dataset preset: fb15k | wn18 | freebase86m"},
		{&rc.Scale, "scale", "dataset scale: tiny | small | paper"},
		{&rc.ModelName, "model", "model: " + strings.Join(model.Names(), " | ") + " (fixes the row widths)"},
		{&rc.Dim, "dim", "embedding dimension d (0 = scale default)"},
		{&rc.LR, "lr", "optimizer learning rate"},
		{&rc.OptimizerName, "optimizer", "optimizer: adagrad | sgd | adam"},
		{&rc.Machines, keyMachines, "cluster machines (PS shards)"},
		{&rc.PartitionerName, "partitioner", "graph partitioner: metis | ldg | random"},
		{&rc.Seed, "seed", "random seed"},
	}
}

// experimentFlags declares the rest of the run surface: knobs only the
// training loop reads, so shards neither need nor accept them.
func experimentFlags(rc *core.RunConfig) []flagDecl {
	return []flagDecl{
		{&rc.System, "system", "system: pbg | dglke | hetkg-c | hetkg-d (elastic mode supports the latter three)"},
		{&rc.LossName, "loss", "loss: logistic | ranking"},
		{&rc.Margin, "margin", "ranking-loss margin γ"},
		{&rc.Epochs, "epochs", "training epochs (0 = scale default)"},
		{&rc.BatchSize, "batch", "positive batch size b_p (0 = scale default)"},
		{&rc.NegPerPos, "negs", "negatives per positive b_n"},
		{&rc.ChunkSize, "chunk", "negative-sampling chunk size b_c"},
		{&rc.WorkersPerMachine, "workers", "workers per machine (elastic mode requires 1)"},
		{&rc.CacheCapacity, "cache", "hot-embedding table capacity k (0 = -cache-budget, else 5% of ids)"},
		{&rc.CacheBudget, "cache-budget", "hot table size as a fraction of the entity+relation universe (0 = default; ignored when -cache is set)"},
		{&rc.CacheSyncEvery, "staleness", "staleness bound P (cache refresh interval; -1 = unbounded)"},
		{&rc.CachePrefetchD, "prefetch", "prefetch depth D (DPS rebuild interval)"},
		{&rc.EntityFraction, "entity-ratio", "entity share of the cache (heterogeneity quota)"},
		{&rc.NoHeterogeneity, "no-heterogeneity", "disable the entity/relation quota (HET-KG-N)"},
		{&rc.Codec, "codec", "wire codec profile: fp32 | fp16 | int8 | delta-int8 | topk | auto (default fp32)"},
		{&rc.TopKRatio, "topk-ratio", "kept gradient fraction per row for -codec topk (0 = default 0.125)"},
		{&rc.AdversarialTemp, "adversarial", "self-adversarial negative sampling temperature (0 = off)"},
		{&rc.DegreeWeightedNegatives, "degree-negatives", "corrupt with degree^0.75-weighted entities (hard negatives)"},
		{&rc.Parallelism, "parallelism", "cores for batch compute and evaluation (0 = all; results identical at any value)"},
		{&rc.EvalEvery, "eval-every", "epochs between validation evaluations (0 = every epoch; larger than -epochs defers to the final evaluation only; negative turns validation off)"},
		{&rc.EvalMax, "eval-max", "validation triples scored per evaluation (0 = default 300)"},
	}
}

// textField is a knob spelled as text in flags and plans (scale, system).
type textField interface {
	encoding.TextMarshaler
	encoding.TextUnmarshaler
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
		case textField:
			fs.TextVar(p, d.name, p, d.usage)
		default:
			panic(fmt.Sprintf("plan: flag -%s bound to unsupported field type %T", d.name, d.field))
		}
	}
}

// BindIdentity fills rc's defaults (Normalize) and registers the
// run-identity flags onto fs, bound to rc: the whole group (what `hetkg ps`
// takes), or only the flags of the listed fields — pointers into rc, e.g.
// BindIdentity(fs, &rc, &rc.Scale, &rc.Seed) — for a verb that reads just
// those.
func BindIdentity(fs *flag.FlagSet, rc *core.RunConfig, only ...any) {
	rc.Normalize()
	bind(fs, identityFlags(rc), only)
}

// BindFlags registers every run flag — the identity group plus the
// experiment group, `hetkg train`'s run surface — onto fs, bound to the
// returned config. Names and defaults equal the plan-file `run:` keys'.
func BindFlags(fs *flag.FlagSet) *core.RunConfig {
	rc := new(core.RunConfig)
	BindIdentity(fs, rc)
	bind(fs, experimentFlags(rc), nil)
	return rc
}

// specFields enumerates the plan-tagged fields, sorted by key — the shared
// walk under decoding, hashing, and key listing.
func specFields() []reflect.StructField {
	t := reflect.TypeOf(core.RunConfig{})
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

// setKey assigns one decoded YAML value to the field its key tags.
func setKey(rc *core.RunConfig, key string, val any) error {
	for _, f := range specFields() {
		if f.Tag.Get("plan") != key {
			continue
		}
		fv := reflect.ValueOf(rc).Elem().FieldByIndex(f.Index)
		return coerce(fv, key, val)
	}
	return fmt.Errorf("plan: unknown run key %q (have %s)", key, strings.Join(SpecKeys(), ", "))
}

// coerce converts a parsed YAML scalar into a field. A text field refuses a
// value its type does not name, so a plan cannot describe a run that
// cannot exist.
func coerce(fv reflect.Value, key string, val any) error {
	if val == nil {
		return fmt.Errorf("plan: key %q has no value", key)
	}
	if tf, ok := fv.Addr().Interface().(textField); ok {
		s, ok := val.(string)
		if !ok {
			return fmt.Errorf("plan: key %q wants a string, got %v (%T)", key, val, val)
		}
		if err := tf.UnmarshalText([]byte(s)); err != nil {
			return fmt.Errorf("plan: key %q: %w", key, err)
		}
		return nil
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
