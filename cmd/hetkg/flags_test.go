package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

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

// TestFormerBinariesFlagsSurvive freezes, per binary folded into a verb, the
// flags it accepted (name → default, read off the last commit that had ten
// binaries) and requires the verb to still define each with that default. A
// verb may gain nothing here and lose nothing; the two defaults that moved
// are the point of the fold: ps takes the trainer's -machines because it
// binds the trainer's declaration, and eval's -scale defers to the scale the
// checkpoint now records.
func TestFormerBinariesFlagsSurvive(t *testing.T) {
	moved := map[string]string{"ps -machines": "4", "eval -scale": ""}
	for _, c := range []struct {
		binary, verb string
		flags        map[string]string
	}{
		{"hetkg-train", "train", map[string]string{
			"adversarial": "0", "artifacts": "", "batch": "0", "cache": "0", "cache-budget": "0", "chunk": "8",
			"ckpt-dir": "", "ckpt-every": "0", "codec": "", "dataset": "fb15k", "degraded-max-staleness": "0",
			"degree-negatives": "false", "dim": "0", "entity-ratio": "0.25", "epochs": "0", "eval-every": "0",
			"eval-max": "0", "heartbeat-interval": "0s", "in": "", "join": "", "load": "", "loss": "logistic",
			"lr": "0.1", "machine": "-1", "machines": "4", "margin": "1", "metrics-addr": "",
			"metrics-allow-remote": "false", "model": "transe", "negs": "8", "no-heterogeneity": "false",
			"optimizer": "adagrad", "parallelism": "0", "partitioner": "metis", "prefetch": "16", "recover-from": "",
			"rpc-retries": "0", "rpc-timeout": "0s", "save": "", "scale": "small", "seed": "42", "shards": "",
			"span": "", "span-every": "0", "span-format": "jsonl", "staleness": "8", "system": "hetkg-d",
			"timeline": "", "timeline-every": "0", "topk-ratio": "0", "trace": "", "workers": "1",
		}},
		{"hetkg-ps", "ps", map[string]string{
			"artifacts": "", "codec": "", "coordinator": "false", "dataset": "fb15k", "dim": "0", "grace": "10s",
			"heartbeat-interval": "1s", "listen": "127.0.0.1:7070", "lr": "0.1", "machine": "0", "machines": "2",
			"metrics-addr": "", "metrics-allow-remote": "false", "model": "transe", "optimizer": "adagrad",
			"partitioner": "metis", "scale": "small", "seed": "42", "shards": "", "telemetry": "",
			"telemetry-every": "0s", "worker-timeout": "0s",
		}},
		{"hetkg-serve", "serve", map[string]string{
			"allow-remote": "false", "cache": "0", "ckpt": "", "entity-fraction": "0", "grace": "10s",
			"knn-metric": "cosine", "listen": "127.0.0.1:8080", "max-batch": "0", "max-k": "0", "parallelism": "0",
			"rebuild-every": "0", "span": "", "span-every": "0", "span-format": "", "telemetry": "",
			"telemetry-every": "0s", "telemetry-label": "",
		}},
		{"hetkg-bench", "exp", map[string]string{
			"bench-out": "", "exp": "all", "json": "false", "list": "false", "scale": "small", "seed": "42",
			"span": "", "span-every": "0", "span-format": "jsonl", "timeline": "", "v": "false",
		}},
		{"hetkg-eval", "eval", map[string]string{
			"candidates": "0", "ckpt": "", "filtered": "true", "in": "", "max": "1000", "parallelism": "0",
			"scale": "small", "task": "linkpred",
		}},
		{"hetkg-data", "data", map[string]string{
			"dataset": "fb15k", "out": "", "scale": "small", "seed": "42", "stats": "true",
		}},
		{"hetkg-partition", "partition", map[string]string{
			"algo": "metis", "dataset": "fb15k", "in": "", "k": "4", "scale": "small", "seed": "42",
		}},
		{"hetkg-trace", "trace", map[string]string{"metric": "mrr"}},
		{"hetkg-trace spans", "trace spans", map[string]string{"top": "5"}},
		{"hetkg-top", "top", map[string]string{
			"addr": "127.0.0.1:6060", "fail-on-alert": "false", "once": "false", "refresh": "2s",
		}},
	} {
		fs := flagSet(t, c.verb)
		for name, def := range c.flags {
			if now, ok := moved[c.verb+" -"+name]; ok {
				def = now
			}
			f := fs.Lookup(name)
			if f == nil {
				t.Errorf("%s accepted -%s; hetkg %s does not", c.binary, name, c.verb)
			} else if f.DefValue != def {
				t.Errorf("hetkg %s -%s defaults to %q; %s defaulted to %q", c.verb, name, f.DefValue, c.binary, def)
			}
		}
		fs.VisitAll(func(f *flag.Flag) {
			if _, ok := c.flags[f.Name]; !ok {
				t.Errorf("hetkg %s defines -%s, which %s did not have (the fold adds no flag)", c.verb, f.Name, c.binary)
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
	new(plan.RunSpec).BindIdentity(idfs)
	idfs.VisitAll(func(f *flag.Flag) { identity[f.Name] = true })

	var b strings.Builder
	for _, v := range verbs {
		fs := flagSet(t, v.name)
		// A verb carries the run identity when it binds the whole group.
		carries := true
		for name := range identity {
			carries = carries && fs.Lookup(name) != nil
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
