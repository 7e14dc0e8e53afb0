package train

import (
	"path/filepath"
	"testing"

	"hetkg/internal/span"
)

// readSpans reads the spans of the dump a run wrote to path.
func readSpans(t *testing.T, path string) []span.Span {
	t.Helper()
	dump, err := span.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return dump.Spans
}

// TestSpanTraceStitchingOverRealTCP is the tracing acceptance test: with
// every batch sampled and the parameter server behind real loopback sockets,
// shard-side spans must carry the originating batch's trace ID — proving the
// (trace, parent) pair crossed the gob wire header — and must parent under
// the client RPC span that issued the request. The shared transport's
// serialization and wire spans must stitch to the same traces.
func TestSpanTraceStitchingOverRealTCP(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Epochs = 1
	cfg.EvalEvery = -1
	cfg.SpanPath, cfg.SpanEvery = filepath.Join(t.TempDir(), "run.spans.jsonl"), 1
	shardSpans := span.NewCollector(span.CollectorConfig{Every: 1})

	serveShards(t, &cfg, shardSpans)

	if _, err := cfg.run(); err != nil {
		t.Fatalf("HET-KG over TCP: %v", err)
	}

	// The run's dump and the shards' spans, merged as `hetkg trace spans`
	// merges one dump per process.
	spans := append(readSpans(t, cfg.SpanPath), shardSpans.Drain()...)
	if len(spans) == 0 {
		t.Fatal("no spans collected")
	}

	// Index the dump: root batch traces, and client-side RPC spans by ID.
	rootTraces := map[uint64]bool{}
	rpcByID := map[uint64]span.Span{}
	for _, s := range spans {
		switch s.Name {
		case span.NBatch:
			rootTraces[s.Trace] = true
		case span.NPSPull, span.NPSPush:
			if s.Worker >= 0 { // client side, not a pseudo-row
				rpcByID[s.ID] = s
			}
		}
	}
	if len(rootTraces) == 0 {
		t.Fatal("no root batch spans")
	}
	if len(rpcByID) == 0 {
		t.Fatal("no client RPC spans")
	}

	// Every shard-side span must stitch: its trace is a sampled batch's
	// trace, and its parent is the client RPC span that carried it.
	var shardPulls, shardApplies int
	for _, s := range spans {
		if s.Name != span.NShardPull && s.Name != span.NShardApply {
			continue
		}
		if s.Worker != span.WorkerShard {
			t.Errorf("shard span %q recorded with worker %d, want %d", s.Name, s.Worker, span.WorkerShard)
		}
		if !rootTraces[s.Trace] {
			t.Errorf("shard span %q trace %#x matches no batch trace", s.Name, s.Trace)
		}
		rpc, ok := rpcByID[s.Parent]
		if !ok {
			t.Errorf("shard span %q parent %d is not a client RPC span", s.Name, s.Parent)
		} else if rpc.Trace != s.Trace {
			t.Errorf("shard span %q trace %#x != parent RPC trace %#x", s.Name, s.Trace, rpc.Trace)
		}
		switch s.Name {
		case span.NShardPull:
			shardPulls++
			if !ok || rpc.Name != span.NPSPull {
				t.Errorf("shard.pull parent span is %q, want %q", rpc.Name, span.NPSPull)
			}
		case span.NShardApply:
			shardApplies++
			if !ok || rpc.Name != span.NPSPush {
				t.Errorf("shard.apply parent span is %q, want %q", rpc.Name, span.NPSPush)
			}
		}
	}
	if shardPulls == 0 {
		t.Error("no shard.pull spans crossed the TCP transport")
	}
	if shardApplies == 0 {
		t.Error("no shard.apply spans crossed the TCP transport")
	}

	// The shared transport row must show codec, serialization and wire
	// time attributed to the same traces.
	var encodes, serializes, wires int
	for _, s := range spans {
		if s.Machine != span.MachineTransport || s.Worker != span.WorkerTransport {
			continue
		}
		if !rootTraces[s.Trace] {
			t.Errorf("transport span %q trace %#x matches no batch trace", s.Name, s.Trace)
		}
		if _, ok := rpcByID[s.Parent]; !ok {
			t.Errorf("transport span %q parent %d is not a client RPC span", s.Name, s.Parent)
		}
		switch s.Name {
		case span.NEncode:
			encodes++
		case span.NSerialize:
			serializes++
		case span.NWireTCP:
			wires++
		default:
			t.Errorf("unexpected span %q on the transport row", s.Name)
		}
	}
	if encodes == 0 {
		t.Error("no transport.encode spans recorded")
	}
	if serializes == 0 {
		t.Error("no transport.serialize spans recorded")
	}
	if wires == 0 {
		t.Error("no wire.tcp spans recorded")
	}
}

// TestSpanHierarchyInProcess checks the worker-side span tree on the
// in-process transport: sampled batches produce a root with negative
// sampling, cache lookup, and gradient compute children, cache refreshes
// own their bulk pulls, and the netsim meter contributes simulated wire
// spans parented under RPC spans.
func TestSpanHierarchyInProcess(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Epochs = 1
	cfg.EvalEvery = -1
	cfg.SpanPath, cfg.SpanEvery = filepath.Join(t.TempDir(), "run.spans.jsonl"), 2

	if _, err := cfg.run(); err != nil {
		t.Fatal(err)
	}
	spans := readSpans(t, cfg.SpanPath)

	byID := map[uint64]span.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.Name]++
		if s.Name == span.NBatch {
			if s.Parent != 0 {
				t.Errorf("root span has parent %d", s.Parent)
			}
			if s.Trace != span.TraceID(s.Worker, int(s.Iter)) {
				t.Errorf("root trace %#x != TraceID(%d, %d)", s.Trace, s.Worker, s.Iter)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %q (id %d) parent %d not in dump", s.Name, s.ID, s.Parent)
			continue
		}
		if p.Trace != s.Trace {
			t.Errorf("span %q trace %#x != parent %q trace %#x", s.Name, s.Trace, p.Name, p.Trace)
		}
		switch s.Name {
		case span.NNegSample, span.NCacheLookup, span.NGradCompute:
			if p.Name != span.NBatch {
				t.Errorf("%q parented under %q, want %q", s.Name, p.Name, span.NBatch)
			}
		case span.NWireSim:
			if !s.Sim {
				t.Errorf("wire.sim span not flagged Sim")
			}
			if p.Name != span.NPSPull && p.Name != span.NPSPush {
				t.Errorf("wire.sim parented under %q, want an RPC span", p.Name)
			}
		case span.NPSPull:
			if p.Name != span.NBatch && p.Name != span.NCacheRefresh {
				t.Errorf("ps.pull parented under %q, want batch or cache.refresh", p.Name)
			}
		}
	}
	for _, name := range []string{
		span.NBatch, span.NNegSample, span.NCacheLookup, span.NGradCompute,
		span.NPSPull, span.NPSPush, span.NCacheRefresh, span.NWireSim,
	} {
		if counts[name] == 0 {
			t.Errorf("no %q spans recorded", name)
		}
	}

	// Sampling interval 2: only even iterations may appear as roots.
	for _, s := range spans {
		if s.Name == span.NBatch && s.Iter%2 != 0 {
			t.Errorf("unsampled iteration %d traced", s.Iter)
		}
	}
}
