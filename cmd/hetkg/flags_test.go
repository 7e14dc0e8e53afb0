package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetkg"
	"hetkg/internal/plan"
)

var update = flag.Bool("update", false, "rewrite the generated flag reference in OPERATIONS.md")

// flagSet returns the flag set the named verb parses.
func flagSet(t *testing.T, name string) *flag.FlagSet {
	t.Helper()
	v, rest := findVerb(strings.Fields(name))
	if v == nil || len(rest) != 0 {
		t.Fatalf("no verb %q", name)
	}
	fs := flag.NewFlagSet(v.name, flag.ContinueOnError)
	v.bind(fs)
	return fs
}

// TestFrozenFlagTable is the CLI's flag surface, frozen: per verb, every flag
// it accepts and its default. A verb may gain nothing here and lose nothing
// without this table saying so in the same change. The table was read off
// the ten binaries the verbs replaced and has been edited twice since, each
// time when flags went with the mechanisms behind them. First six: train
// -trace (the epoch records are in -timeline), the span format choice on
// train, exp and serve (recorders write hetkg-spans/v1; `hetkg trace chrome`
// is the other view), exp -json (-bench-out) and compare -plan (the gate is
// equality). Then serve -max-batch and serve -parallelism, with the batcher
// they tuned: a prediction sweeps on its caller's goroutine.
func TestFrozenFlagTable(t *testing.T) {
	table := map[string]map[string]string{
		"train": {
			"adversarial": "0", "artifacts": "", "batch": "0", "cache": "0", "cache-budget": "0", "chunk": "8",
			"ckpt-dir": "", "ckpt-every": "0", "codec": "", "dataset": "fb15k", "degraded-max-staleness": "0",
			"degree-negatives": "false", "dim": "0", "entity-ratio": "0.25", "epochs": "0", "eval-every": "0",
			"eval-max": "0", "heartbeat-interval": "0s", "in": "", "join": "", "load": "", "loss": "logistic",
			"lr": "0.1", "machine": "-1", "machines": "4", "margin": "1", "metrics-addr": "",
			"metrics-allow-remote": "false", "model": "transe", "negs": "8", "no-heterogeneity": "false",
			"optimizer": "adagrad", "parallelism": "0", "partitioner": "metis", "prefetch": "16", "recover-from": "",
			"rpc-retries": "0", "rpc-timeout": "0s", "save": "", "scale": "small", "seed": "42", "shards": "",
			"span": "", "span-every": "0", "staleness": "8", "system": "hetkg-d",
			"timeline": "", "timeline-every": "0", "topk-ratio": "0", "workers": "1",
		},
		"ps": {
			"artifacts": "", "codec": "", "coordinator": "false", "dataset": "fb15k", "dim": "0", "grace": "10s",
			"heartbeat-interval": "1s", "listen": "127.0.0.1:7070", "lr": "0.1", "machine": "0", "machines": "4",
			"metrics-addr": "", "metrics-allow-remote": "false", "model": "transe", "optimizer": "adagrad",
			"partitioner": "metis", "scale": "small", "seed": "42", "shards": "", "telemetry": "",
			"telemetry-every": "0s", "worker-timeout": "0s",
		},
		"serve": {
			"allow-remote": "false", "ckpt": "", "grace": "10s",
			"knn-metric": "cosine", "listen": "127.0.0.1:8080", "max-k": "0",
			"span": "", "span-every": "0", "telemetry": "",
			"telemetry-every": "0s", "telemetry-label": "",
		},
		"exp": {
			"bench-out": "", "exp": "all", "list": "false", "scale": "small", "seed": "42",
			"span": "", "span-every": "0", "timeline": "", "v": "false",
		},
		"eval": {
			"candidates": "0", "ckpt": "", "filtered": "true", "in": "", "max": "1000", "parallelism": "0",
			"scale": "", "task": "linkpred",
		},
		"data": {
			"dataset": "fb15k", "out": "", "scale": "small", "seed": "42", "stats": "true",
		},
		"partition": {
			"algo": "metis", "dataset": "fb15k", "in": "", "k": "4", "scale": "small", "seed": "42",
		},
		"plan":         {"full": "false"},
		"apply":        {"artifacts": filepath.Join(os.TempDir(), "hetkg-artifacts"), "out": ".", "q": "false"},
		"compare":      {"q": "false"},
		"trace":        {"metric": "mrr"},
		"trace spans":  {"top": "5"},
		"trace chrome": {},
		"top": {
			"addr": "127.0.0.1:6060", "fail-on-alert": "false", "once": "false", "refresh": "2s",
		},
	}
	if len(table) != len(verbs) {
		t.Errorf("the table freezes %d verbs, hetkg has %d", len(table), len(verbs))
	}
	for _, v := range verbs {
		verb, flags := v.name, table[v.name]
		if flags == nil {
			t.Errorf("hetkg %s is not in the table", verb)
			continue
		}
		fs := flagSet(t, verb)
		for name, def := range flags {
			f := fs.Lookup(name)
			if f == nil {
				t.Errorf("hetkg %s lost -%s", verb, name)
			} else if f.DefValue != def {
				t.Errorf("hetkg %s -%s defaults to %q; the table froze %q", verb, name, f.DefValue, def)
			}
		}
		fs.VisitAll(func(f *flag.Flag) {
			if _, ok := flags[f.Name]; !ok {
				t.Errorf("hetkg %s defines -%s, which the table does not have", verb, f.Name)
			}
		})
	}
}

// TestPSRejectsLoopFlags pins the other half of the identity split: the
// training-loop flags are not a shard's to take.
func TestPSRejectsLoopFlags(t *testing.T) {
	for _, name := range []string{"epochs", "batch", "system", "cache"} {
		if flagSet(t, "ps").Lookup(name) != nil {
			t.Errorf("hetkg ps defines the training-loop flag -%s", name)
		}
		var out, errb strings.Builder
		if code := run([]string{"ps", "-" + name, "1"}, &out, &errb); code != 2 {
			t.Errorf("hetkg ps -%s exited %d, want 2", name, code)
		}
	}
}

const (
	refDoc   = "../../OPERATIONS.md"
	refBegin = "<!-- BEGIN GENERATED FLAG REFERENCE: go test ./cmd/hetkg -run TestFlagReference -update -->\n"
	refEnd   = "<!-- END GENERATED FLAG REFERENCE -->\n"
)

// flagReference renders every verb's flags, straight off the flag sets the
// verbs parse, as OPERATIONS.md's flag reference.
func flagReference(t *testing.T) string {
	identity := map[string]bool{}
	idfs := flag.NewFlagSet("identity", flag.ContinueOnError)
	plan.BindIdentity(idfs, new(hetkg.RunConfig))
	idfs.VisitAll(func(f *flag.Flag) { identity[f.Name] = true })

	var b strings.Builder
	for _, v := range verbs {
		fs := flagSet(t, v.name)
		// A verb carries the run identity when it binds the whole group.
		carries := true
		for name := range identity {
			carries = carries && fs.Lookup(name) != nil
		}
		n := 0
		fs.VisitAll(func(*flag.Flag) { n++ })
		if n == 0 {
			fmt.Fprintf(&b, "\n### hetkg %s\n\n`hetkg %s %s`\n\n%s It takes no flags.\n", v.name, v.name, v.args, v.about)
			continue
		}
		fmt.Fprintf(&b, "\n### hetkg %s\n\n`%s`\n\n%s\n\n| flag | default | meaning |\n|---|---|---|\n",
			v.name, strings.TrimSpace("hetkg "+v.name+" [flags] "+v.args), v.about)
		fs.VisitAll(func(f *flag.Flag) {
			name, def := "`-"+f.Name+"`", ""
			if carries && identity[f.Name] {
				name += " †"
			}
			if f.DefValue != "" {
				// The one default that depends on the environment.
				def = "`" + strings.Replace(f.DefValue, os.TempDir(), "$TMPDIR", 1) + "`"
			}
			fmt.Fprintf(&b, "| %s | %s | %s |\n", name, def, strings.ReplaceAll(f.Usage, "|", `\|`))
		})
	}
	return b.String() + "\n"
}

// TestFlagReference keeps OPERATIONS.md's flag reference equal to what the
// verbs define: it fails when a flag, default or help string changes without
// the doc, and `-update` rewrites the section between the markers.
func TestFlagReference(t *testing.T) {
	raw, err := os.ReadFile(refDoc)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok := bytes.Cut(raw, []byte(refBegin))
	old, tail, ok2 := bytes.Cut(rest, []byte(refEnd))
	if !ok || !ok2 {
		t.Fatalf("%s lacks the generated-section markers %q ... %q", refDoc, refBegin, refEnd)
	}
	want := flagReference(t)
	if string(old) == want {
		return
	}
	if !*update {
		t.Fatalf("%s flag reference is stale; regenerate it with\n\tgo test ./cmd/hetkg -run TestFlagReference -update", refDoc)
	}
	out := string(head) + refBegin + want + refEnd + string(tail)
	if err := os.WriteFile(refDoc, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}
