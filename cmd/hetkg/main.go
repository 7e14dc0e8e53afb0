// hetkg is the repo's one binary: every operator-facing tool is a verb.
//
//	hetkg train -dataset fb15k -system hetkg-d -machines 4 -epochs 5
//	hetkg ps    -dataset fb15k -machines 2 -machine 0 -listen :7070
//	hetkg serve -ckpt model.ckpt
//	hetkg apply -out . examples/plans/ci.yml
//
// `hetkg help` lists the verbs and `hetkg <verb> -h` a verb's flags;
// OPERATIONS.md carries the same flag reference, generated from the verbs'
// flag sets by TestFlagReference (flags_test.go).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"hetkg/internal/plan"
	"hetkg/internal/plan/benchfmt"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// action is a verb's body, run once its flags are parsed; it returns the
// process exit code: 0 on success, 1 on execution or gate failure, 2 on
// usage errors.
type action func(stdout, stderr io.Writer) int

// verb is one `hetkg <name>` tool. bind declares the verb's flags on fs and
// returns its body, which reads positional arguments from fs.Args() — so
// the flag set a verb parses is the same one the flag reference and the
// frozen-flag test inspect.
type verb struct {
	name  string
	args  string // positional-argument synopsis
	about string
	bind  func(fs *flag.FlagSet) action
}

// verbs is the whole CLI surface, in the order `hetkg help` lists it.
// "trace spans" and "trace chrome" are sub-modes of trace.
var verbs = []verb{
	{"train", "", "Run one training job. Single-process by default; -shards makes it a static-cluster trainer, -join an elastic worker. Reports per-epoch progress, the final link-prediction metrics, and the time/traffic breakdown.", bindTrain},
	{"ps", "", "Host one parameter-server shard. This is the multi-process deployment of the co-located PS architecture; with -coordinator the shard is also the cluster's membership coordinator. Every shard derives its own rows deterministically from the run-identity flags (no state transfer), so a cluster is N `hetkg ps` processes plus `hetkg train -shards` or `-join` processes pointing at them.", bindPS},
	{"serve", "", "Answer knowledge-graph queries over HTTP from a trained checkpoint. Triple scoring, top-k link prediction, and embedding-space nearest neighbors, fronted by a hotness-aware embedding cache; each prediction sweeps the entity table on its own request (DESIGN.md §9). The endpoints are unauthenticated, so non-loopback -listen addresses are refused unless -allow-remote is set; /metrics, /healthz, and /debug/pprof/ are mounted on the same listener. SIGINT/SIGTERM drain in-flight requests (bounded by -grace), then write the span dump if -span is set.", bindServe},
	{"eval", "", "Score a saved checkpoint on a link-prediction test set. The test set is the -in file, or by default the test split of the preset the checkpoint's provenance names.", bindEval},
	{"exp", "", "Regenerate the tables and figures of the HET-KG paper. Each experiment prints a text table matching the corresponding paper artifact; EXPERIMENTS.md records paper-vs-measured for every row.", bindExp},
	{"plan", "<plan.yml>", "Resolve a declarative experiment plan and print its run matrix. One line per run with its canonical config hash (DESIGN.md §14).", bindPlan},
	{"apply", "<plan.yml>", "Execute a plan and write its hetkg-bench/v3 snapshot, BENCH_<plan>.json. Runs execute in-process, with dataset generation and partitioning served from the content-addressed artifact cache.", bindApply},
	{"compare", "<current.json> <baseline.json>", "Gate a snapshot against a committed baseline. Every value the baseline records must be present and identical to the last bit; only the wall-clock readings under `wall` are exempt. Exits 1 on any drift — there is no tolerance to configure, an intended change re-pins the baseline with the diff shown (DESIGN.md §14).", bindCompare},
	{"data", "", "Generate a synthetic benchmark dataset and report its structural statistics. Degree skew and relation-usage concentration are what drive HET-KG's design (the Fig. 2 micro-benchmark).", bindData},
	{"partition", "", "Partition a knowledge graph across a cluster and report edge cut and balance. These are the locality numbers behind §V \"Graph Partitioning\".", bindPartition},
	{"trace", "<timeline.jsonl>...", "Compare runs recorded with -timeline. The epoch records of each timeline as per-epoch columns aligned across runs plus an ASCII sparkline per run, for quick convergence comparison without leaving the terminal.", bindTrace},
	{"trace spans", "<spans.jsonl>...", "Analyze span dumps recorded with -span. A comm-vs-compute-vs-cache attribution table over the sampled batches, the top-k slowest spans, the per-machine straggler summary, and the slowest batch's critical path. Several files merge into one analysis by trace ID (duplicated spans are dropped), so the per-process dumps of an elastic run — worker batches in one file, shard-side spans in another — stitch back into whole cross-process critical paths.", bindTraceSpans},
	{"trace chrome", "<spans.jsonl>...", "Print span dumps recorded with -span as Chrome trace-event JSON. Redirect it to a file and open that in https://ui.perfetto.dev or chrome://tracing; several dumps merge as in trace spans.", bindTraceChrome},
	{"top", "", "Live terminal dashboard over a cluster's fleet telemetry. Polls the /fleet endpoint of a `hetkg ps -coordinator` process started with -metrics-addr and renders one row per process — derived rates, cache hit ratio, a sparkline of the recent primary rate, report age — plus the active health alerts. Refreshes until interrupted; -once prints a single snapshot, and -fail-on-alert makes the exit status a health assertion for scripts.", bindTop},
}

// findVerb resolves the leading words of args to a verb, preferring the
// two-word form, and returns the verb's own arguments.
func findVerb(args []string) (*verb, []string) {
	for n := min(2, len(args)); n > 0; n-- {
		name := strings.Join(args[:n], " ")
		for i := range verbs {
			if verbs[i].name == name {
				return &verbs[i], args[n:]
			}
		}
	}
	return nil, nil
}

func usage(w io.Writer) {
	fmt.Fprint(w, "usage: hetkg <verb> [flags] [args]    (hetkg <verb> -h lists a verb's flags)\n\n")
	for _, v := range verbs {
		summary, _, _ := strings.Cut(v.about, ". ")
		fmt.Fprintf(w, "  %-42s %s\n", strings.TrimSpace(v.name+" "+v.args), summary)
	}
}

// run is the testable entry point: it resolves the verb, parses its flags,
// and executes it.
func run(args []string, stdout, stderr io.Writer) int {
	v, rest := findVerb(args)
	if v == nil {
		if len(args) > 0 && slices.Contains([]string{"-h", "-help", "--help", "help"}, args[0]) {
			usage(stdout)
			return 0
		}
		if len(args) > 0 {
			fmt.Fprintf(stderr, "hetkg: unknown verb %q\n", args[0])
		}
		usage(stderr)
		return 2
	}
	fs := flag.NewFlagSet("hetkg "+v.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	act := v.bind(fs)
	switch err := fs.Parse(rest); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	return act(stdout, stderr)
}

// failf reports a verb's failure on stderr and returns its exit code.
func failf(stderr io.Writer, code int, format string, args ...any) int {
	fmt.Fprintf(stderr, format+"\n", args...)
	return code
}

// logTo returns a printf-style logger writing prefixed lines to w.
func logTo(w io.Writer, prefix string) func(format string, args ...any) {
	return func(format string, args ...any) {
		fmt.Fprintf(w, prefix+format+"\n", args...)
	}
}

func bindPlan(fs *flag.FlagSet) action {
	full := fs.Bool("full", false, "print full 64-char config hashes")
	return func(stdout, stderr io.Writer) int {
		if fs.NArg() != 1 {
			return failf(stderr, 2, "hetkg plan: exactly one plan file expected")
		}
		p, err := plan.Load(fs.Arg(0))
		if err != nil {
			return failf(stderr, 1, "%v", err)
		}
		runs, err := p.Resolve()
		if err != nil {
			return failf(stderr, 1, "%v", err)
		}
		fmt.Fprintf(stdout, "plan %s: %d run(s)\n", p.Name, len(runs))
		for i, r := range runs {
			hash := r.ShortHash()
			if *full {
				hash = r.Hash
			}
			fmt.Fprintf(stdout, "%3d  %s  %s\n", i+1, hash, r.Name)
		}
		return 0
	}
}

func bindApply(fs *flag.FlagSet) action {
	openArtifacts := bindArtifacts(fs, filepath.Join(os.TempDir(), "hetkg-artifacts"))
	outDir := fs.String("out", ".", "directory for the BENCH_<plan>.json snapshot")
	quiet := fs.Bool("q", false, "suppress per-run progress")
	return func(stdout, stderr io.Writer) int {
		if fs.NArg() != 1 {
			return failf(stderr, 2, "hetkg apply: exactly one plan file expected")
		}
		p, err := plan.Load(fs.Arg(0))
		if err != nil {
			return failf(stderr, 1, "%v", err)
		}
		var opt plan.ApplyOptions
		if opt.Artifacts, err = openArtifacts(); err != nil {
			return failf(stderr, 1, "%v", err)
		}
		if !*quiet {
			opt.Logf = logTo(stderr, "[apply] ")
		}
		res, err := plan.Apply(p, opt)
		if err != nil {
			return failf(stderr, 1, "%v", err)
		}
		path, err := benchfmt.WriteDir(*outDir, res.File)
		if err != nil {
			return failf(stderr, 1, "%v", err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d runs, artifact cache: %d hits, %d misses)\n",
			path, len(res.File.Rows), res.CacheHits, res.CacheMisses)
		return 0
	}
}

func bindCompare(fs *flag.FlagSet) action {
	quiet := fs.Bool("q", false, "print only the verdict")
	return func(stdout, stderr io.Writer) int {
		if fs.NArg() != 2 {
			return failf(stderr, 2, "hetkg compare: expected <current.json> <baseline.json>")
		}
		cur, err := benchfmt.Read(fs.Arg(0))
		if err != nil {
			return failf(stderr, 1, "%v", err)
		}
		base, err := benchfmt.Read(fs.Arg(1))
		if err != nil {
			return failf(stderr, 1, "%v", err)
		}
		rep, err := plan.Compare(cur, base)
		if err != nil {
			return failf(stderr, 1, "%v", err)
		}
		if !*quiet {
			for _, p := range rep.Problems {
				fmt.Fprintln(stdout, " ", p)
			}
		}
		fmt.Fprintln(stdout, rep.Summary())
		if !rep.OK() {
			return 1
		}
		return 0
	}
}
