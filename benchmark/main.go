// Command benchmark is this repository's benchmark: five fixed-work
// workloads over the real training path (worker → ps.Client → codec → TCP
// link → shard → optimizer, on loopback sockets) and the real serving path
// (closed-loop HTTP → batcher → sweep), end-to-end metrics measured with
// tracing off, and a traced replay that says which layer the time went to.
// See README.md.
//
// Native use, from this directory:
//
//	go run .                       every workload, untraced then replayed
//	go run . -workload tcp-wide    one workload
//	go run . -replay=false         end-to-end metrics only
//	go run . -selfcheck            two untraced suites, compared to the bounds
//
// The driver's contract (BENCHMARK.json) is served by run.sh:
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const defaultSeconds = 15

func main() {
	var (
		workloadFlag = flag.String("workload", "", "run only this workload (default: all)")
		seed         = flag.Int64("seed", 42, "seed for dataset generation, partitioning and request key streams")
		seconds      = flag.Float64("seconds", defaultSeconds, "timed work per run: fixed-work rounds repeat until this much has been measured")
		trace        = flag.Int("trace", -1, "driver mode: 0 prints the end-to-end metrics of -workload as one JSON line, 1 the per-layer metrics")
		replay       = flag.Bool("replay", true, "after the untraced run, run the traced replay for the per-layer metrics")
		selfcheck    = flag.Bool("selfcheck", false, "run the untraced suite twice in alternating order and compare against the bounds")
		short        = flag.Bool("short", false, "smoke size: tiny inputs, one round (numbers are meaningless)")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json as the metric and workload tables define it, and exit")
		child        = flag.String("child", "", "internal: measure this workload in this process and print its result as JSON")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	// The load needs two cores at most (one worker goroutine plus one shard
	// goroutine are busy at a time; two HTTP clients), so the measurement
	// does not depend on how many more the box has.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *child != "":
		runChild(*child, runOptions{seed: *seed, seconds: *seconds, trace: *trace == 1, short: *short})
	case *trace >= 0:
		driverMode(*workloadFlag, *seed, *seconds, *trace == 1, *short)
	case *selfcheck:
		os.Exit(selfCheck(selected(*workloadFlag, *short), *seed, *seconds, *short))
	default:
		os.Exit(nativeMode(selected(*workloadFlag, *short), *seed, *seconds, *replay, *short))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// selected resolves -workload to the workloads to run.
func selected(name string, short bool) []workload {
	if name == "" {
		return workloads(short)
	}
	w, err := findWorkload(name, short)
	if err != nil {
		fatalf("%v", err)
	}
	return []workload{w}
}

// benchmarkDir finds this package's directory from the working directory:
// the repository root when started by run.sh, the package itself under
// `go run .`.
func benchmarkDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Join(dir, "benchmark"), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json above the working directory")
		}
		dir = parent
	}
}

// runChild measures one workload in this process and prints the result.
func runChild(name string, o runOptions) {
	w, err := findWorkload(name, o.short)
	if err != nil {
		fatalf("%v", err)
	}
	dir, err := benchmarkDir()
	if err != nil {
		fatalf("%v", err)
	}
	o.outDir = filepath.Join(dir, "out")
	if err := json.NewEncoder(os.Stdout).Encode(runWorkload(w, o)); err != nil {
		fatalf("%v", err)
	}
}

// spawn re-executes this binary as a child for one workload, so that peak
// RSS, GC state and listener ports never leak from one workload to the
// next, and waits for it. The child's stderr passes through.
func spawn(w workload, seed int64, seconds float64, trace, short bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe, "-child", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", traceArg, fmt.Sprintf("-short=%t", short))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child for %s: %w", w.Name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("child for %s printed no result: %w", w.Name, err)
	}
	return &res, nil
}

// driverMode serves the contract in BENCHMARK.json: one workload, one JSON
// object as the last line of standard output. With trace off the metrics
// are exactly the endToEnd table, with trace on exactly the perLayer table;
// a per-layer metric whose layer is not on the workload's path reads 0.
func driverMode(name string, seed int64, seconds float64, trace, short bool) {
	if name == "" {
		fatalf("-trace needs -workload")
	}
	w, err := findWorkload(name, short)
	if err != nil {
		fatalf("%v", err)
	}
	res, err := spawn(w, seed, seconds, trace, short)
	if err != nil {
		fatalf("%v", err)
	}
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "benchmark: %s: check %s failed: %s\n", w.Name, c.Name, c.Detail)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Correct, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{Value: res.Metrics[d.Name], Unit: d.Unit}
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fatalf("%v", err)
	}
}

// unitOf returns the unit of a metric from any of the three tables.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, extraEndToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// printMetrics prints one "workload metric value unit" line per metric.
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-15s %-38s %16.6g %s\n", res.Workload, n, res.Metrics[n], unitOf(n))
	}
	fmt.Printf("%-15s %-38s %16d count\n", res.Workload, opsName(res, "attempted"), res.Attempted)
	fmt.Printf("%-15s %-38s %16d count\n", res.Workload, opsName(res, "failed"), res.Failed)
}

func opsName(res *result, what string) string {
	if res.Trace {
		return "replay.ops_" + what
	}
	return "ops_" + what
}

// nativeMode runs every selected workload untraced, then replayed, prints
// every metric, and writes out/results.json. It returns the exit code: 1 if
// any check failed.
func nativeMode(ws []workload, seed int64, seconds float64, replay, short bool) int {
	dir, err := benchmarkDir()
	if err != nil {
		fatalf("%v", err)
	}
	report := struct {
		Environment map[string]any `json:"environment"`
		Results     []*result      `json:"results"`
	}{Environment: environment(seed, seconds, short)}
	failed := 0
	for _, w := range ws {
		for _, trace := range []bool{false, true} {
			if trace && !replay {
				continue
			}
			res, err := spawn(w, seed, seconds, trace, short)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				failed++
				continue
			}
			printMetrics(res)
			for _, c := range res.Checks {
				if !c.OK {
					failed++
					fmt.Printf("%-15s CHECK FAILED %s: %s\n", w.Name, c.Name, c.Detail)
				}
			}
			if res.Failed > 0 {
				failed++
			}
			report.Results = append(report.Results, res)
		}
	}
	path := filepath.Join(dir, "out", "results.json")
	if err := writeJSONFile(path, report); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("wrote %s\n", path)
	if failed > 0 {
		fmt.Printf("FAILED: %d checks or workloads failed\n", failed)
		return 1
	}
	fmt.Println("all checks passed")
	return 0
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// environment records what the numbers were measured on.
func environment(seed int64, seconds float64, short bool) map[string]any {
	env := map[string]any{
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"seed":       seed,
		"seconds":    seconds,
		"short":      short,
	}
	// The commit, when the benchmark runs inside a git checkout.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	return env
}

// selfCheck runs the untraced suite twice, the second time in reverse
// order, and prints per (workload, metric) both values, their relative
// difference and the bound. It returns 1 if any end-to-end metric of the
// same code differs by more than its own bound.
func selfCheck(ws []workload, seed int64, seconds float64, short bool) int {
	runSuite := func(order []workload) map[string]*result {
		out := map[string]*result{}
		for _, w := range order {
			res, err := spawn(w, seed, seconds, false, short)
			if err != nil {
				fatalf("%v", err)
			}
			out[w.Name] = res
		}
		return out
	}
	first := runSuite(ws)
	reversed := make([]workload, len(ws))
	for i, w := range ws {
		reversed[len(ws)-1-i] = w
	}
	second := runSuite(reversed)

	code := 0
	fmt.Printf("%-15s %-24s %14s %14s %8s %7s\n", "workload", "metric", "run A", "run B", "diff", "bound")
	for _, w := range ws {
		a, b := first[w.Name], second[w.Name]
		if !a.Correct || !b.Correct {
			fmt.Printf("%-15s a run failed its checks\n", w.Name)
			code = 1
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), extraEndToEnd...) {
			va, ok := a.Metrics[d.Name]
			if !ok {
				continue // the metric does not apply to this workload
			}
			vb := b.Metrics[d.Name]
			diff := relDiff(va, vb)
			verdict := ""
			if diff > d.Bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-15s %-24s %14.6g %14.6g %7.2f%% %6.0f%%%s\n", w.Name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	return code
}

// manifestJSON renders BENCHMARK.json from the workload and metric tables.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // Bound is 0 there and omitted
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads(false) {
		m.Workloads = append(m.Workloads, wl{Name: w.Name, Why: w.Why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // the tables are plain data
	}
	return append(b, '\n')
}
