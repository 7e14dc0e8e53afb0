package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"hetkg/internal/metrics"
	"hetkg/internal/span"
)

// traceUsage is printed when a trace sub-mode is given no file.
const traceUsage = "usage: hetkg trace [-metric mrr|loss|comm_ms|hit_ratio] timeline1.jsonl [timeline2.jsonl ...]\n" +
	"       hetkg trace spans [-top K] spans.jsonl [more.jsonl ...]\n" +
	"       hetkg trace chrome spans.jsonl [more.jsonl ...] > trace.json"

// traceAction is the shell the trace sub-modes share: files are required,
// and view renders them to stdout.
func traceAction(fs *flag.FlagSet, view func(stdout io.Writer, paths []string) error) action {
	return func(stdout, stderr io.Writer) int {
		if fs.NArg() == 0 {
			return failf(stderr, 2, traceUsage)
		}
		if err := view(stdout, fs.Args()); err != nil {
			return failf(stderr, 1, "%v", err)
		}
		return 0
	}
}

func bindTrace(fs *flag.FlagSet) action {
	metric := fs.String("metric", "mrr", "column to compare: mrr | loss | comm_ms | hit_ratio")
	return traceAction(fs, func(w io.Writer, paths []string) error { return compareRuns(w, *metric, paths) })
}

func bindTraceSpans(fs *flag.FlagSet) action {
	topK := fs.Int("top", 5, "how many slowest spans to list")
	return traceAction(fs, func(w io.Writer, paths []string) error { return spansReport(w, paths, *topK) })
}

func bindTraceChrome(fs *flag.FlagSet) action {
	return traceAction(fs, func(w io.Writer, paths []string) error {
		spans, _, err := loadSpans(io.Discard, paths)
		if err != nil {
			return err
		}
		return span.WriteChromeTrace(w, spans)
	})
}

// epochMetrics maps each -metric choice to its reader over a timeline's
// epoch record.
var epochMetrics = map[string]func(metrics.TimelineRecord) float64{
	"mrr":       func(r metrics.TimelineRecord) float64 { return r.EpochEnd.MRR },
	"loss":      func(r metrics.TimelineRecord) float64 { return r.Loss },
	"hit_ratio": func(r metrics.TimelineRecord) float64 { return r.EpochEnd.HitRatio },
	"comm_ms": func(r metrics.TimelineRecord) float64 {
		if r.EpochEnd.CommMS == 0 && r.Wall != nil {
			return r.Wall.CommMS // PBG's is wall-clock (see TimelineWall)
		}
		return r.EpochEnd.CommMS
	},
}

// compareRuns renders the aligned per-epoch table and sparklines for the
// given timeline files.
func compareRuns(w io.Writer, metric string, paths []string) error {
	value, ok := epochMetrics[metric]
	if !ok {
		return fmt.Errorf("hetkg trace: unknown metric %q (want mrr, loss, comm_ms, or hit_ratio)", metric)
	}
	type loaded struct {
		name string
		vals []float64
	}
	var runs []loaded
	maxEpochs := 0
	for _, path := range paths {
		r, err := metrics.ReadTimelineFile(path)
		if err != nil {
			return err
		}
		var vals []float64
		for _, rec := range r.Records {
			if rec.EpochEnd != nil {
				vals = append(vals, value(rec))
			}
		}
		name := fmt.Sprintf("%s/%s", r.Header.System, r.Header.Dataset)
		runs = append(runs, loaded{name: name, vals: vals})
		if len(vals) > maxEpochs {
			maxEpochs = len(vals)
		}
	}

	// Aligned table.
	fmt.Fprintf(w, "%-28s", "epoch:")
	for e := 1; e <= maxEpochs; e++ {
		fmt.Fprintf(w, "%9d", e)
	}
	fmt.Fprintln(w)
	for _, r := range runs {
		fmt.Fprintf(w, "%-28s", r.name)
		for _, v := range r.vals {
			fmt.Fprintf(w, "%9.3f", v)
		}
		fmt.Fprintln(w)
	}

	// Sparklines (min-max normalized per run).
	fmt.Fprintf(w, "\n%s over epochs:\n", metric)
	for _, r := range runs {
		fmt.Fprintf(w, "%-28s %s\n", r.name, sparkline(r.vals))
	}
	return nil
}

// loadSpans merges every input dump into one span set, describing each file
// on w. A multi-process elastic run writes one dump per process — the
// worker's batch spans and the shards' shard.pull/shard.apply spans carry
// the same trace ID (it rides the wire header), so concatenating the files
// is exactly merge-by-trace-ID and cross-process parent/child chains
// reconnect. Spans identical in (trace, id, start) — overlapping dumps of
// the same ring — are dropped as duplicates and counted in dups.
func loadSpans(w io.Writer, paths []string) (spans []span.Span, dups int, err error) {
	type spanKey struct {
		trace, id uint64
		start     int64
	}
	seen := make(map[spanKey]bool)
	for _, path := range paths {
		d, err := span.ReadFile(path)
		if err != nil {
			return nil, 0, err
		}
		kept := 0
		for _, s := range d.Spans {
			k := spanKey{s.Trace, s.ID, s.StartNS}
			if seen[k] {
				dups++
				continue
			}
			seen[k] = true
			spans = append(spans, s)
			kept++
		}
		fmt.Fprintf(w, "%s: %s/%s, %d spans (every %d), seed %d\n",
			path, d.Header.System, d.Header.Dataset, kept, d.Header.Every, d.Header.Seed)
	}
	return spans, dups, nil
}

// spansReport analyzes the union of the input dumps as one trace set.
func spansReport(w io.Writer, paths []string, topK int) error {
	spans, dups, err := loadSpans(w, paths)
	if err != nil {
		return err
	}
	if dups > 0 {
		fmt.Fprintf(w, "dropped %d duplicate spans shared between files\n", dups)
	}

	a := span.Analyze(spans, topK)
	fmt.Fprintf(w, "%d sampled batches across %d files\n", len(a.Batches), len(paths))
	if len(a.Batches) == 0 {
		fmt.Fprintln(w, "  no batch spans in dump")
		return nil
	}

	fmt.Fprintf(w, "\ncritical-path attribution over %s of sampled batch time:\n", fmtDur(a.TotalBatch))
	fmt.Fprintf(w, "  %-10s%12s%9s\n", "category", "total", "share")
	for _, cat := range span.Categories() {
		dur := a.Total[cat]
		share := 0.0
		if a.TotalBatch > 0 {
			share = 100 * float64(dur) / float64(a.TotalBatch)
		}
		fmt.Fprintf(w, "  %-10s%12s%8.1f%%\n", cat, fmtDur(dur), share)
	}

	fmt.Fprintf(w, "\ntop-%d slowest spans:\n", len(a.Slowest))
	fmt.Fprintf(w, "  %12s  %-20s%9s%8s%7s%7s%9s%11s\n",
		"dur", "name", "machine", "worker", "iter", "shard", "rows", "bytes")
	for _, s := range a.Slowest {
		name := s.Name
		if s.Sim {
			name += " (sim)"
		}
		fmt.Fprintf(w, "  %12s  %-20s%9d%8d%7d%7s%9d%11d\n",
			fmtDur(s.Duration()), name, s.Machine, s.Worker, s.Iter, fmtShard(s.Shard), s.Rows, s.Bytes)
	}

	fmt.Fprintln(w, "\nper-machine batches (straggler view):")
	fmt.Fprintf(w, "  %-9s%9s%12s%12s\n", "machine", "batches", "mean", "max")
	for _, m := range a.Machines {
		fmt.Fprintf(w, "  %-9d%9d%12s%12s\n", m.Machine, m.Batches, fmtDur(m.Mean), fmtDur(m.Max))
	}

	slow := slowestBatch(a)
	chain := span.CriticalPath(spans, slow)
	fmt.Fprintf(w, "\nslowest batch critical path (machine %d worker %d iter %d, %s):\n  ",
		slow.Machine, slow.Worker, slow.Iter, fmtDur(slow.Duration()))
	for i, s := range chain {
		if i > 0 {
			fmt.Fprint(w, " -> ")
		}
		fmt.Fprintf(w, "%s %s", s.Name, fmtDur(s.Duration()))
	}
	fmt.Fprintln(w)
	return nil
}

// slowestBatch returns the root span of the longest sampled batch.
func slowestBatch(a *span.Analysis) span.Span {
	idx := 0
	for i, b := range a.Batches {
		if b.Root.DurNS > a.Batches[idx].Root.DurNS {
			idx = i
		}
	}
	return a.Batches[idx].Root
}

// fmtDur renders durations compactly for tables (microsecond precision
// below a millisecond, otherwise 10µs precision).
func fmtDur(d time.Duration) string {
	if d < time.Millisecond {
		return d.Round(time.Microsecond).String()
	}
	return d.Round(10 * time.Microsecond).String()
}

// fmtShard renders a span's target shard, "-" when not applicable.
func fmtShard(shard int) string {
	if shard == span.NoShard {
		return "-"
	}
	return fmt.Sprintf("%d", shard)
}
