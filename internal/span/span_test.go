package span

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSamplingIsDeterministic(t *testing.T) {
	col := NewCollector(CollectorConfig{Every: 4})
	tr := col.Tracer(0, 0)
	var sampled []int
	for it := 0; it < 20; it++ {
		if tr.Sampled(it) {
			sampled = append(sampled, it)
		}
	}
	want := []int{0, 4, 8, 12, 16}
	if len(sampled) != len(want) {
		t.Fatalf("sampled %v, want %v", sampled, want)
	}
	for i := range want {
		if sampled[i] != want[i] {
			t.Fatalf("sampled %v, want %v", sampled, want)
		}
	}
	// A nil tracer samples nothing.
	var nilTr *Tracer
	if nilTr.Sampled(0) {
		t.Error("nil tracer reported a sampled batch")
	}
}

func TestTraceIDDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for w := 0; w < 4; w++ {
		for it := 0; it < 64; it++ {
			id := TraceID(w, it)
			if id == 0 {
				t.Fatalf("TraceID(%d,%d) = 0", w, it)
			}
			if seen[id] {
				t.Fatalf("TraceID(%d,%d) collides", w, it)
			}
			seen[id] = true
			if id != TraceID(w, it) {
				t.Fatal("TraceID not deterministic")
			}
		}
	}
}

func TestParentChildLinkage(t *testing.T) {
	col := NewCollector(CollectorConfig{Every: 1})
	tr := col.Tracer(2, 3)
	root := tr.Root(0)
	if !root.Valid() {
		t.Fatal("root not sampled at iteration 0")
	}
	child := root.Start(NGradCompute)
	grand := tr.StartChild(child.Context(), NPSPull)
	grand.EndAttrs(Attrs{Rows: 7, Bytes: 99, Shard: 1})
	child.End()
	tr.RecordSim(child.Context(), NWireSim, 5*time.Millisecond, 42)
	root.End()

	spans := col.Drain()
	if len(spans) != 4 {
		t.Fatalf("drained %d spans, want 4", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.Trace != TraceID(3, 0) {
			t.Errorf("span %s has trace %#x, want %#x", s.Name, s.Trace, TraceID(3, 0))
		}
		if s.Machine != 2 || s.Worker != 3 {
			t.Errorf("span %s at machine/worker %d/%d, want 2/3", s.Name, s.Machine, s.Worker)
		}
	}
	if byName[NGradCompute].Parent != byName[NBatch].ID {
		t.Error("compute span does not parent to root")
	}
	if byName[NPSPull].Parent != byName[NGradCompute].ID {
		t.Error("pull span does not parent to compute")
	}
	if byName[NPSPull].Rows != 7 || byName[NPSPull].Bytes != 99 || byName[NPSPull].Shard != 1 {
		t.Errorf("pull attrs %+v not preserved", byName[NPSPull])
	}
	sim := byName[NWireSim]
	if !sim.Sim || sim.DurNS != int64(5*time.Millisecond) || sim.Parent != byName[NGradCompute].ID {
		t.Errorf("sim span wrong: %+v", sim)
	}
	if byName[NBatch].Shard != NoShard {
		t.Errorf("root shard = %d, want NoShard", byName[NBatch].Shard)
	}
}

func TestUnsampledBatchIsInert(t *testing.T) {
	col := NewCollector(CollectorConfig{Every: 10})
	tr := col.Tracer(0, 0)
	root := tr.Root(3) // 3 % 10 != 0
	if root.Valid() {
		t.Fatal("iteration 3 should not be sampled at every=10")
	}
	child := root.Start(NGradCompute)
	child.EndAttrs(Attrs{Rows: 1})
	tr.StartChild(root.Context(), NPSPull).End()
	tr.RecordSim(root.Context(), NWireSim, time.Second, 1)
	root.End()
	if got := col.Drain(); len(got) != 0 {
		t.Fatalf("unsampled batch recorded %d spans", len(got))
	}
}

func TestRingBufferWrapsKeepingNewest(t *testing.T) {
	col := NewCollector(CollectorConfig{Every: 1, Capacity: 8})
	tr := col.Tracer(0, 0)
	for it := 0; it < 20; it++ {
		tr.Root(it).End()
	}
	spans := col.Drain()
	if len(spans) != 8 {
		t.Fatalf("ring holds %d spans, want 8", len(spans))
	}
	for i, s := range spans {
		if want := int64(12 + i); s.Iter != want {
			t.Fatalf("ring slot %d has iter %d, want %d (oldest-first, newest kept)", i, s.Iter, want)
		}
	}
	if tr.Dropped() != 12 {
		t.Errorf("Dropped() = %d, want 12", tr.Dropped())
	}
}

// TestDisabledPathZeroAlloc pins the overhead guard: with a nil tracer (the
// -span-less default) every call on the batch hot path is a branch — no
// allocations anywhere.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		root := tr.Root(0)
		sp := root.Start(NGradCompute)
		sp.EndAttrs(Attrs{Rows: 1, Shard: NoShard})
		c := tr.StartChild(root.Context(), NPSPull)
		c.End()
		tr.RecordSim(root.Context(), NWireSim, time.Second, 1)
		root.End()
		_ = tr.Sampled(7)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocates %.1f per op, want 0", allocs)
	}
}

// TestUnsampledPathZeroAlloc pins the same guard for a live tracer on an
// off-grid iteration.
func TestUnsampledPathZeroAlloc(t *testing.T) {
	col := NewCollector(CollectorConfig{Every: 1 << 30})
	tr := col.Tracer(0, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		root := tr.Root(1)
		sp := root.Start(NGradCompute)
		sp.End()
		tr.StartChild(root.Context(), NPSPull).End()
		root.End()
	})
	if allocs != 0 {
		t.Fatalf("unsampled path allocates %.1f per op, want 0", allocs)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	col := NewCollector(CollectorConfig{Every: 1})
	tr := col.Tracer(1, 0)
	root := tr.Root(0)
	root.Start(NGradCompute).End()
	root.End()
	spans := col.Drain()

	hdr := Header{System: "HET-KG-D", Dataset: "fb15k", Every: 1, Seed: 42}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, hdr, spans); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	d, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if d.Header.Kind != Kind || d.Header.System != "HET-KG-D" || d.Header.Seed != 42 {
		t.Errorf("header mangled: %+v", d.Header)
	}
	if len(d.Spans) != len(spans) {
		t.Fatalf("round trip lost spans: %d != %d", len(d.Spans), len(spans))
	}
	for i := range spans {
		if d.Spans[i] != spans[i] {
			t.Errorf("span %d mangled: %+v != %+v", i, d.Spans[i], spans[i])
		}
	}
}

func TestReadJSONLRejectsWrongKind(t *testing.T) {
	in := `{"kind":"hetkg-timeline/v1","every":10}` + "\n"
	if _, err := ReadJSONL(bytes.NewReader([]byte(in))); err == nil {
		t.Fatal("ReadJSONL accepted a timeline header")
	}
}

// TestChromeTraceStructure asserts the export is structurally valid Chrome
// trace-event JSON: a traceEvents array whose entries carry ph/pid/tid and,
// for "X" events, microsecond ts/dur — the shape Perfetto accepts.
func TestChromeTraceStructure(t *testing.T) {
	col := NewCollector(CollectorConfig{Every: 1})
	wtr := col.Tracer(0, 0)
	str := col.Tracer(1, WorkerShard)
	root := wtr.Root(0)
	rpc := root.Start(NPSPull)
	str.StartChild(rpc.Context(), NShardPull).End()
	rpc.EndAttrs(Attrs{Rows: 3, Bytes: 120, Shard: 1})
	wtr.RecordSim(rpc.Context(), NWireSim, time.Millisecond, 120)
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, col.Drain()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Errorf("displayTimeUnit %q", doc.Unit)
	}
	var durEvents, metaEvents int
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event without numeric pid: %v", ev)
		}
		if _, ok := ev["tid"].(float64); !ok {
			t.Fatalf("event without numeric tid: %v", ev)
		}
		switch ph {
		case "X":
			durEvents++
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("duration event without ts: %v", ev)
			}
			if _, ok := ev["name"].(string); !ok {
				t.Fatalf("duration event without name: %v", ev)
			}
		case "M":
			metaEvents++
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
	}
	if durEvents != 4 {
		t.Errorf("%d duration events, want 4", durEvents)
	}
	if metaEvents != 4 { // 2 rows × (process_name + thread_name)
		t.Errorf("%d metadata events, want 4", metaEvents)
	}
	// Machines map to processes, workers to threads.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			if args, ok := ev["args"].(map[string]any); ok && args["name"] == "ps-shard" {
				found = true
			}
		}
	}
	if !found {
		t.Error("no ps-shard thread_name metadata event")
	}
}

func TestAnalyzeAttributionAndStragglers(t *testing.T) {
	ms := func(d int) int64 { return int64(time.Duration(d) * time.Millisecond) }
	spans := []Span{
		// Batch 1 on machine 0: 10ms root = 4ms compute + 3ms comm + 1ms cache, 2ms other.
		{Trace: 1, ID: 1, Name: NBatch, Machine: 0, Worker: 0, StartNS: 0, DurNS: ms(10), Iter: 0, Shard: NoShard},
		{Trace: 1, ID: 2, Parent: 1, Name: NGradCompute, Machine: 0, Worker: 0, StartNS: 1, DurNS: ms(4), Shard: NoShard},
		{Trace: 1, ID: 3, Parent: 1, Name: NPSPull, Machine: 0, Worker: 0, StartNS: 2, DurNS: ms(3), Shard: 0},
		// Grandchild: must NOT double count at the root.
		{Trace: 1, ID: 4, Parent: 3, Name: NShardPull, Machine: 0, Worker: WorkerShard, StartNS: 3, DurNS: ms(2), Shard: NoShard},
		{Trace: 1, ID: 5, Parent: 1, Name: NCacheLookup, Machine: 0, Worker: 0, StartNS: 4, DurNS: ms(1), Shard: NoShard},
		// Batch 2 on machine 1: 30ms root, no children (all uncovered).
		{Trace: 2, ID: 6, Name: NBatch, Machine: 1, Worker: 1, StartNS: 5, DurNS: ms(30), Iter: 16, Shard: NoShard},
	}
	a := Analyze(spans, 3)
	if len(a.Batches) != 2 {
		t.Fatalf("%d batches, want 2", len(a.Batches))
	}
	b0 := a.Batches[0]
	if got := b0.ByCategory["compute"]; got != 4*time.Millisecond {
		t.Errorf("compute %v, want 4ms", got)
	}
	if got := b0.ByCategory["comm"]; got != 3*time.Millisecond {
		t.Errorf("comm %v, want 3ms (grandchild must not double count)", got)
	}
	if got := b0.ByCategory["cache"]; got != time.Millisecond {
		t.Errorf("cache %v, want 1ms", got)
	}
	if b0.Uncovered != 2*time.Millisecond {
		t.Errorf("uncovered %v, want 2ms", b0.Uncovered)
	}
	if a.TotalBatch != 40*time.Millisecond {
		t.Errorf("total batch %v, want 40ms", a.TotalBatch)
	}
	if a.Total["other"] != 32*time.Millisecond {
		t.Errorf("total other %v, want 32ms", a.Total["other"])
	}
	if len(a.Slowest) != 3 || a.Slowest[0].Name != NGradCompute {
		t.Errorf("slowest = %+v, want compute first", a.Slowest)
	}
	if len(a.Machines) != 2 {
		t.Fatalf("%d machine summaries, want 2", len(a.Machines))
	}
	if m := a.Machines[1]; m.Machine != 1 || m.Batches != 1 || m.Max != 30*time.Millisecond {
		t.Errorf("machine 1 summary %+v", m)
	}

	// The path follows the longest direct child at each level: grad.compute
	// (4ms) beats ps.pull (3ms) at the root, and has no children of its own.
	path := CriticalPath(spans, spans[0])
	if len(path) != 2 || path[0].Name != NBatch || path[1].Name != NGradCompute {
		t.Fatalf("critical path %+v, want batch→grad.compute", path)
	}
}

// TestCriticalPathEndsOnParentCycle walks a dump in which a span lists
// itself as its parent, under an ID its own parent already has. The walk
// must end, without visiting a span ID twice.
func TestCriticalPathEndsOnParentCycle(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 10, Name: NBatch, Shard: NoShard},
		{Trace: 1, ID: 20, Parent: 10, Name: NGradCompute, Shard: NoShard},
		{Trace: 1, ID: 20, Parent: 20, Name: NGradCompute, Shard: NoShard},
	}
	done := make(chan []Span, 1)
	go func() { done <- CriticalPath(spans, spans[0]) }()
	select {
	case path := <-done:
		if len(path) != 2 || path[0].ID != 10 || path[1].Parent != 10 {
			t.Fatalf("critical path %+v, want batch{10} → child{20, parent 10}", path)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CriticalPath did not return within 5 s")
	}
}
