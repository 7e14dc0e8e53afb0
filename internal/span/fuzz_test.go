package span

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// FuzzSpanDump feeds arbitrary bytes to the span-dump reader and, when they
// parse, does with the dump what `hetkg trace spans` and `hetkg trace chrome`
// do: Analyze, CriticalPath from every root, and the Chrome export. Nothing
// may panic or hang, a critical path is never longer than the dump, and the
// dump WriteJSONL writes back must read back equal.
func FuzzSpanDump(f *testing.F) {
	col := NewCollector(CollectorConfig{Every: 1})
	tr := col.Tracer(0, 0)
	root := tr.Root(0)
	rpc := root.Start(NPSPull)
	col.Tracer(1, WorkerShard).StartChild(rpc.Context(), NShardPull).End()
	rpc.EndAttrs(Attrs{Rows: 3, Bytes: 120, Shard: 1})
	tr.RecordSim(root.Context(), NWireSim, 1000, 64)
	root.End()
	var dump bytes.Buffer
	if err := WriteJSONL(&dump, Header{System: "hetkg-d", Dataset: "fb15k", Every: 1, Seed: 42}, col.Drain()); err != nil {
		f.Fatal(err)
	}
	const hdr = `{"kind":"hetkg-spans/v1","every":1,"seed":0}` + "\n"
	for _, seed := range []string{
		dump.String(),
		hdr + `{"trace":1,"id":10,"name":"batch","shard":-1}` + "\n" +
			`{"trace":1,"id":20,"parent":10,"name":"grad.compute","shard":-1}` + "\n" +
			`{"trace":1,"id":20,"parent":20,"name":"grad.compute","shard":-1}` + "\n",
		hdr + `{"trace":2,"id":1,"parent":1,"name":"serve.request","dur_ns":5}` + "\n\n" +
			`{"trace":2,"id":2,"parent":1,"name":"serve.sweep","start_ns":-9223372036854775808}` + "\n",
		hdr,
		hdr + "null\n",
		`{"kind":"hetkg-timeline/v1"}` + "\n",
		"",
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		Analyze(d.Spans, 0)
		for _, s := range d.Spans {
			if !IsRoot(s.Name) {
				continue
			}
			if path := CriticalPath(d.Spans, s); len(path) > len(d.Spans) {
				t.Fatalf("critical path of %d spans from a dump of %d", len(path), len(d.Spans))
			}
		}
		if err := WriteChromeTrace(io.Discard, d.Spans); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		// Re-encoding turns one input byte into at most six (JSON escapes a
		// "<" as six bytes), and the reader refuses lines over 1 MiB.
		if len(data) > 1<<20/6 {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, d.Header, d.Spans); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("reading back what WriteJSONL wrote: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, d) {
			t.Fatalf("round trip changed the dump:\n got %+v\nwant %+v", back, d)
		}
	})
}
