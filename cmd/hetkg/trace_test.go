package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hetkg/internal/metrics"
	"hetkg/internal/span"
	"hetkg/internal/trace"
	"hetkg/internal/train"
)

func writeTrace(t *testing.T, name, system string, epochs []metrics.EpochStat) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	err := trace.WriteFile(path, trace.Header{Dataset: "fb15k", Seed: 7},
		&train.Result{System: system, Epochs: epochs})
	if err != nil {
		t.Fatalf("writing trace: %v", err)
	}
	return path
}

func writeFileString(path, s string) error {
	return os.WriteFile(path, []byte(s), 0o644)
}

func TestCompareRunsTableAndSparkline(t *testing.T) {
	a := writeTrace(t, "a.jsonl", "DGL-KE", []metrics.EpochStat{
		{Epoch: 1, Loss: 5, MRR: 0.1}, {Epoch: 2, Loss: 2, MRR: 0.3},
	})
	b := writeTrace(t, "b.jsonl", "HET-KG-D", []metrics.EpochStat{
		{Epoch: 1, Loss: 4, MRR: 0.2}, {Epoch: 2, Loss: 1.5, MRR: 0.4}, {Epoch: 3, Loss: 1, MRR: 0.5},
	})

	var buf bytes.Buffer
	if err := compareRuns(&buf, "mrr", []string{a, b}); err != nil {
		t.Fatalf("compareRuns: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"epoch:", "DGL-KE/fb15k", "HET-KG-D/fb15k",
		"0.100", "0.300", "0.500", // metric values land in the table
		"mrr over epochs:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Three epochs of columns: header row ends at epoch 3.
	header := strings.SplitN(out, "\n", 2)[0]
	if !strings.Contains(header, "3") {
		t.Errorf("header not aligned to longest run: %q", header)
	}
	// The longer run's sparkline has one block rune per epoch.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "HET-KG-D/fb15k") && strings.ContainsRune(line, '█') {
			runes := []rune(strings.TrimSpace(strings.TrimPrefix(line, "HET-KG-D/fb15k")))
			if len(runes) != 3 {
				t.Errorf("sparkline has %d runes, want 3: %q", len(runes), line)
			}
		}
	}

	// Every documented metric selects its own column.
	for _, m := range []string{"loss", "comm_ms", "hit_ratio"} {
		if err := compareRuns(&bytes.Buffer{}, m, []string{a}); err != nil {
			t.Errorf("metric %q rejected: %v", m, err)
		}
	}
}

func TestCompareRunsErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := compareRuns(&buf, "mrr", []string{"/nonexistent/run.jsonl"}); err == nil {
		t.Error("missing file accepted")
	}

	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := writeFileString(bad, `{"kind":"hetkg-timeline/v1"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	if err := compareRuns(&buf, "mrr", []string{bad}); err == nil {
		t.Error("wrong header kind accepted")
	} else if !strings.Contains(err.Error(), "kind") {
		t.Errorf("kind error not descriptive: %v", err)
	}

	good := writeTrace(t, "good.jsonl", "DGL-KE", []metrics.EpochStat{{Epoch: 1, MRR: 0.1}})
	if err := compareRuns(&buf, "f1", []string{good}); err == nil {
		t.Error("unknown metric accepted")
	} else if !strings.Contains(err.Error(), "f1") {
		t.Errorf("metric error does not name the metric: %v", err)
	}
}

func TestSpansReport(t *testing.T) {
	// A hand-built dump: two batches on two machines with compute, RPC,
	// and shard child spans.
	base := int64(1_000_000)
	ms := int64(time.Millisecond)
	spans := []span.Span{
		{Trace: 0x101, ID: 1, Name: span.NBatch, Machine: 0, Worker: 0, StartNS: base, DurNS: 10 * ms, Iter: 16, Shard: span.NoShard},
		{Trace: 0x101, ID: 2, Parent: 1, Name: span.NGradCompute, Machine: 0, Worker: 0, StartNS: base + ms, DurNS: 6 * ms, Rows: 512, Shard: span.NoShard},
		{Trace: 0x101, ID: 3, Parent: 1, Name: span.NPSPull, Machine: 0, Worker: 0, StartNS: base + 7*ms, DurNS: 2 * ms, Bytes: 4096, Shard: 1},
		{Trace: 0x101, ID: 4, Parent: 3, Name: span.NShardPull, Machine: 1, Worker: span.WorkerShard, StartNS: base + 7*ms, DurNS: ms, Rows: 32, Shard: 1},
		{Trace: 0x101, ID: 5, Parent: 1, Name: span.NCacheLookup, Machine: 0, Worker: 0, StartNS: base + 9*ms, DurNS: ms, Shard: span.NoShard},
		{Trace: 0x201, ID: 6, Name: span.NBatch, Machine: 1, Worker: 1, StartNS: base, DurNS: 4 * ms, Iter: 16, Shard: span.NoShard},
		{Trace: 0x201, ID: 7, Parent: 6, Name: span.NGradCompute, Machine: 1, Worker: 1, StartNS: base + ms, DurNS: 3 * ms, Shard: span.NoShard},
	}
	path := filepath.Join(t.TempDir(), "s.jsonl")
	hdr := span.Header{System: "HET-KG-D", Dataset: "fb15k", Every: 16, Seed: 7}
	if err := span.WriteFile(path, span.FormatJSONL, hdr, spans); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := spansReport(&buf, []string{path}, 3); err != nil {
		t.Fatalf("spansReport: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"HET-KG-D/fb15k, 7 spans (every 16), seed 7",
		"2 sampled batches across 1 files",
		"critical-path attribution",
		"compute", "comm", "cache", "other",
		"top-3 slowest spans",
		span.NGradCompute,
		"per-machine batches (straggler view):",
		"slowest batch critical path (machine 0 worker 0 iter 16, 10ms):",
		"batch 10ms -> grad.compute 6ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Attribution shares: compute 9ms, comm 2ms, cache 1ms of 14ms total.
	for _, want := range []string{"64.3%", "14.3%", "7.1%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing share %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "duplicate spans") {
		t.Errorf("single-file report mentions duplicates:\n%s", out)
	}

	if err := spansReport(&buf, []string{"/nonexistent/s.jsonl"}, 0); err == nil {
		t.Error("missing span file accepted")
	}
	// A trace file is not a span dump: the kind check must reject it.
	tr := writeTrace(t, "run.jsonl", "DGL-KE", []metrics.EpochStat{{Epoch: 1}})
	if err := spansReport(&buf, []string{tr}, 0); err == nil {
		t.Error("hetkg-trace/v1 file accepted as span dump")
	}
}

// TestSpansReportMergesFiles splits one elastic run's spans across a worker
// dump and a shard dump (sharing trace IDs and one duplicated span) and
// checks the merged analysis stitches the cross-process critical path back
// together — identical to analyzing a single combined dump.
func TestSpansReportMergesFiles(t *testing.T) {
	base := int64(1_000_000)
	ms := int64(time.Millisecond)
	workerSpans := []span.Span{
		{Trace: 0x101, ID: 1, Name: span.NBatch, Machine: 0, Worker: 0, StartNS: base, DurNS: 10 * ms, Iter: 16, Shard: span.NoShard},
		{Trace: 0x101, ID: 2, Parent: 1, Name: span.NGradCompute, Machine: 0, Worker: 0, StartNS: base + ms, DurNS: 6 * ms, Rows: 512, Shard: span.NoShard},
		{Trace: 0x101, ID: 3, Parent: 1, Name: span.NPSPull, Machine: 0, Worker: 0, StartNS: base + 7*ms, DurNS: 2 * ms, Bytes: 4096, Shard: 1},
		{Trace: 0x201, ID: 6, Name: span.NBatch, Machine: 1, Worker: 1, StartNS: base, DurNS: 4 * ms, Iter: 16, Shard: span.NoShard},
	}
	// The shard's dump carries its own spans for the same trace IDs, plus a
	// duplicate of the worker's ps.pull span (overlapping rings).
	shardSpans := []span.Span{
		{Trace: 0x101, ID: 3, Parent: 1, Name: span.NPSPull, Machine: 0, Worker: 0, StartNS: base + 7*ms, DurNS: 2 * ms, Bytes: 4096, Shard: 1},
		{Trace: 0x101, ID: 4, Parent: 3, Name: span.NShardPull, Machine: 1, Worker: span.WorkerShard, StartNS: base + 7*ms, DurNS: ms, Rows: 32, Shard: 1},
		{Trace: 0x201, ID: 7, Parent: 6, Name: span.NGradCompute, Machine: 1, Worker: 1, StartNS: base + ms, DurNS: 3 * ms, Shard: span.NoShard},
	}
	dir := t.TempDir()
	hdr := span.Header{System: "HET-KG-D", Dataset: "fb15k", Every: 16, Seed: 7}
	wp := filepath.Join(dir, "worker.jsonl")
	sp := filepath.Join(dir, "shard.jsonl")
	if err := span.WriteFile(wp, span.FormatJSONL, hdr, workerSpans); err != nil {
		t.Fatal(err)
	}
	if err := span.WriteFile(sp, span.FormatJSONL, hdr, shardSpans); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := spansReport(&buf, []string{wp, sp}, 5); err != nil {
		t.Fatalf("spansReport: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"worker.jsonl: HET-KG-D/fb15k, 4 spans (every 16), seed 7",
		"shard.jsonl: HET-KG-D/fb15k, 2 spans (every 16), seed 7",
		"dropped 1 duplicate spans shared between files",
		"2 sampled batches across 2 files",
		// The shard-side span from the second file attributes into the
		// worker's batch: cross-process merge by trace ID worked.
		span.NShardPull,
		"slowest batch critical path (machine 0 worker 0 iter 16, 10ms):",
		"batch 10ms -> grad.compute 6ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged report missing %q:\n%s", want, out)
		}
	}
	// Merged attribution matches the single-file analysis of the same spans:
	// compute 9ms, comm 2ms of 14ms batch time.
	for _, want := range []string{"64.3%", "14.3%"} {
		if !strings.Contains(out, want) {
			t.Errorf("merged report missing share %q:\n%s", want, out)
		}
	}
}

func TestSparklineScaling(t *testing.T) {
	if got := sparkline(nil); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
	got := sparkline([]float64{0, 1})
	if got != "▁█" {
		t.Errorf("sparkline(0,1) = %q, want ▁█", got)
	}
	if got := sparkline([]float64{2, 2, 2}); got != "▁▁▁" {
		t.Errorf("flat sparkline = %q, want ▁▁▁", got)
	}
}
