package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"hetkg/internal/span"
	"hetkg/internal/trace"
)

func bindTrace(fs *flag.FlagSet) action {
	metric := fs.String("metric", "mrr", "column to compare: mrr | loss | comm_ms | hit_ratio")
	return func(stdout, stderr io.Writer) int {
		if fs.NArg() == 0 {
			return failf(stderr, 2, "usage: hetkg trace [-metric mrr|loss|comm_ms|hit_ratio] run1.jsonl [run2.jsonl ...]\n"+
				"       hetkg trace spans [-top K] spans.jsonl [more.jsonl ...]")
		}
		if err := compareRuns(stdout, *metric, fs.Args()); err != nil {
			return failf(stderr, 1, "%v", err)
		}
		return 0
	}
}

func bindTraceSpans(fs *flag.FlagSet) action {
	topK := fs.Int("top", 5, "how many slowest spans to list")
	return func(stdout, stderr io.Writer) int {
		if fs.NArg() == 0 {
			return failf(stderr, 2, "usage: hetkg trace spans [-top K] spans.jsonl [more.jsonl ...]")
		}
		if err := spansReport(stdout, fs.Args(), *topK); err != nil {
			return failf(stderr, 1, "%v", err)
		}
		return 0
	}
}

// epochValue extracts one comparison metric from an epoch line.
func epochValue(e trace.Epoch, metric string) (float64, error) {
	switch metric {
	case "mrr":
		return e.MRR, nil
	case "loss":
		return e.Loss, nil
	case "comm_ms":
		return e.CommMS, nil
	case "hit_ratio":
		return e.HitRatio, nil
	default:
		return 0, fmt.Errorf("hetkg trace: unknown metric %q (want mrr, loss, comm_ms, or hit_ratio)", metric)
	}
}

// compareRuns renders the aligned per-epoch table and sparklines for the
// given trace files.
func compareRuns(w io.Writer, metric string, paths []string) error {
	type loaded struct {
		name string
		vals []float64
	}
	var runs []loaded
	maxEpochs := 0
	for _, path := range paths {
		r, err := trace.ReadFile(path)
		if err != nil {
			return err
		}
		vals := make([]float64, len(r.Epochs))
		for i, e := range r.Epochs {
			if vals[i], err = epochValue(e, metric); err != nil {
				return err
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

// spansReport merges every input dump and analyzes the union as one
// trace set. A multi-process elastic run writes one dump per process —
// the worker's batch spans and the shards' shard.pull/shard.apply spans
// carry the same trace ID (it rides the wire header), so concatenating
// the files is exactly merge-by-trace-ID and cross-process parent/child
// chains reconnect. Spans identical in (trace, id, start) — overlapping
// dumps of the same ring — are dropped as duplicates.
func spansReport(w io.Writer, paths []string, topK int) error {
	type spanKey struct {
		trace, id uint64
		start     int64
	}
	var spans []span.Span
	seen := make(map[spanKey]bool)
	dups := 0
	for _, path := range paths {
		d, err := span.ReadFile(path)
		if err != nil {
			return err
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
