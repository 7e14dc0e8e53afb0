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
)

// epoch is one epoch record of a hand-built timeline.
type epoch struct{ loss, mrr float64 }

// writeTimeline writes a timeline holding an interval record, which the
// epoch view must skip, and one epoch record per entry of epochs.
func writeTimeline(t *testing.T, name, system string, epochs []epoch) string {
	t.Helper()
	var buf bytes.Buffer
	em, err := metrics.NewTimelineEmitter(&buf, metrics.NewRegistry(),
		metrics.TimelineHeader{System: system, Dataset: "fb15k", Seed: 7})
	if err == nil {
		err = em.Emit(metrics.TimelineRecord{Iter: 10, Epoch: 1, Loss: 9})
	}
	for i, e := range epochs {
		if err == nil {
			err = em.Emit(metrics.TimelineRecord{Epoch: i + 1, Loss: e.loss, EpochEnd: &metrics.TimelineEpoch{MRR: e.mrr}})
		}
	}
	if err != nil {
		t.Fatalf("writing timeline: %v", err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeFileString(path, s string) error {
	return os.WriteFile(path, []byte(s), 0o644)
}

func TestCompareRunsTableAndSparkline(t *testing.T) {
	a := writeTimeline(t, "a.jsonl", "DGL-KE", []epoch{{5, 0.1}, {2, 0.3}})
	b := writeTimeline(t, "b.jsonl", "HET-KG-D", []epoch{{4, 0.2}, {1.5, 0.4}, {1, 0.5}})

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
	if err := writeFileString(bad, `{"kind":"hetkg-spans/v1"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	if err := compareRuns(&buf, "mrr", []string{bad}); err == nil {
		t.Error("wrong header kind accepted")
	} else if !strings.Contains(err.Error(), "kind") {
		t.Errorf("kind error not descriptive: %v", err)
	}

	good := writeTimeline(t, "good.jsonl", "DGL-KE", []epoch{{1, 0.1}})
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
	if err := span.WriteFile(path, hdr, spans); err != nil {
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
	// A timeline is not a span dump: the kind check must reject it.
	tl := writeTimeline(t, "run.jsonl", "DGL-KE", []epoch{{1, 0}})
	if err := spansReport(&buf, []string{tl}, 0); err == nil {
		t.Error("hetkg-timeline/v1 file accepted as span dump")
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
	if err := span.WriteFile(wp, hdr, workerSpans); err != nil {
		t.Fatal(err)
	}
	if err := span.WriteFile(sp, hdr, shardSpans); err != nil {
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

// TestTraceReadsTrainTimelines is the migration check for the removed
// `train -trace` recorder: testdata/trace_mrr.golden is what `hetkg trace`
// printed, at the last commit that had it, over the hetkg-trace/v1 files of
// these three runs; the same verb over their -timeline files must print it
// still — PBG included, whose timeline used to be left empty.
func TestTraceReadsTrainTimelines(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three tiny runs")
	}
	dir := t.TempDir()
	var paths []string
	for _, system := range []string{"dglke", "hetkg-d", "pbg"} {
		path := filepath.Join(dir, system+".jsonl")
		paths = append(paths, path)
		var out, errb strings.Builder
		code := run([]string{"train", "-dataset", "fb15k", "-scale", "tiny", "-system", system,
			"-machines", "2", "-epochs", "3", "-seed", "42", "-timeline", path, "-timeline-every", "50"}, &out, &errb)
		if code != 0 {
			t.Fatalf("train -system %s exit %d: %s", system, code, errb.String())
		}
	}
	var out, errb strings.Builder
	if code := run(append([]string{"trace", "-metric", "mrr"}, paths...), &out, &errb); code != 0 {
		t.Fatalf("trace exit %d: %s", code, errb.String())
	}
	want, err := os.ReadFile("testdata/trace_mrr.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("hetkg trace over timelines:\n%s\nwant what it printed over the equivalent traces:\n%s", out.String(), want)
	}
}

// TestTraceChrome: the Chrome view is a pure function of the dumps — byte for
// byte what the recorder's own Chrome export wrote for the same spans when a
// run could still choose that format — and several dumps merge as `trace
// spans` merges them, duplicates dropped.
func TestTraceChrome(t *testing.T) {
	base := int64(1_000_000)
	ms := int64(time.Millisecond)
	worker := []span.Span{
		{Trace: 0x101, ID: 1, Name: span.NBatch, Machine: 0, Worker: 0, StartNS: base, DurNS: 10 * ms, Iter: 16, Shard: span.NoShard},
		{Trace: 0x101, ID: 3, Parent: 1, Name: span.NPSPull, Machine: 0, Worker: 0, StartNS: base + 7*ms, DurNS: 2 * ms, Bytes: 4096, Shard: 1},
		{Trace: 0x101, ID: 5, Parent: 3, Name: span.NWireSim, Machine: span.MachineTransport, Worker: span.WorkerTransport, StartNS: base + 7*ms, DurNS: ms, Bytes: 4096, Shard: 1, Sim: true},
	}
	shard := []span.Span{
		worker[1], // overlapping rings: the same span in both dumps
		{Trace: 0x101, ID: 4, Parent: 3, Name: span.NShardPull, Machine: 1, Worker: span.WorkerShard, StartNS: base + 7*ms, DurNS: ms, Rows: 32, Shard: 1},
	}
	dir := t.TempDir()
	hdr := span.Header{System: "HET-KG-D", Dataset: "fb15k", Every: 16, Seed: 7}
	wp, sp := filepath.Join(dir, "worker.jsonl"), filepath.Join(dir, "shard.jsonl")
	if err := span.WriteFile(wp, hdr, worker); err != nil {
		t.Fatal(err)
	}
	if err := span.WriteFile(sp, hdr, shard); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		paths []string
		spans []span.Span
	}{
		{[]string{wp}, worker},
		{[]string{wp, sp}, append(append([]span.Span{}, worker...), shard[1])},
	} {
		var want bytes.Buffer
		if err := span.WriteChromeTrace(&want, c.spans); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if code := run(append([]string{"trace", "chrome"}, c.paths...), &out, &errb); code != 0 {
			t.Fatalf("trace chrome %v exit %d: %s", c.paths, code, errb.String())
		}
		if !bytes.Equal(out.Bytes(), want.Bytes()) {
			t.Errorf("trace chrome %v =\n%s\nwant\n%s", c.paths, out.Bytes(), want.Bytes())
		}
	}

	var out, errb bytes.Buffer
	if code := run([]string{"trace", "chrome"}, &out, &errb); code != 2 {
		t.Errorf("trace chrome without files exit %d, want 2", code)
	}
	if code := run([]string{"trace", "chrome", filepath.Join(dir, "absent.jsonl")}, &out, &errb); code != 1 {
		t.Errorf("trace chrome on a missing file exit %d, want 1", code)
	}
}
