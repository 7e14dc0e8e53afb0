package metrics

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzTimeline feeds arbitrary bytes to ReadTimeline, the reader behind
// `hetkg trace`. Nothing may panic, and the reader may allocate no more
// than its fixed line buffer plus a bound linear in the input: no length
// the input spells out may size an allocation. An accepted timeline,
// emitted again through TimelineEmitter, must read back to the same
// records and re-emit to the same bytes; the emitted file with its last
// record torn mid-line must read as every record but that one, and the
// same torn line followed by a complete record must be an error.
func FuzzTimeline(f *testing.F) {
	reg := NewRegistry()
	reg.Counter(MCacheHits).Add(7)
	reg.Gauge(MTrainLoss).Set(0.5)
	reg.Histogram(MCacheStaleness).ObserveInt(3)
	var emitted bytes.Buffer
	em, err := NewTimelineEmitter(&emitted, reg, TimelineHeader{System: "HET-KG-D", Dataset: "fb15k", Seed: 42, Every: 5})
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []TimelineRecord{
		{Iter: 5, Epoch: 1, Loss: 0.7, Wall: &TimelineWall{ElapsedMS: 1.5}},
		{Iter: 8, Epoch: 1, Loss: 0.6, EpochEnd: &TimelineEpoch{MRR: 0.25, HitRatio: 0.5}},
	} {
		if err := em.Emit(rec); err != nil {
			f.Fatal(err)
		}
	}
	const hdr = `{"kind":"hetkg-timeline/v1","every":5,"seed":1}` + "\n"
	for _, seed := range []string{
		emitted.String(),
		hdr + `{"iter":5,"epoch":1,"loss":2.5}` + "\n" + `{"iter":10,"epoch":1,"lo`,
		hdr + `{"iter":5,"epoch":1,"lo` + "\n" + `{"iter":10,"epoch":1,"loss":2.1}` + "\n",
		hdr + "\n\nnull\n" + `{"metrics":{"a":{"kind":"histogram","buckets":[],"q":{}}}}` + "\n",
		`{"kind":"hetkg-spans/v1"}` + "\n",
		"",
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run, err := ReadTimeline(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The 1 MiB line buffer, plus at most about 500 B of decoder state
		// and record per input byte (a file of "{}" lines is the worst case).
		if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+1024*len(data)); got > budget {
			t.Fatalf("reading %d bytes allocated %d, budget %d", len(data), got, budget)
		}
		if err != nil {
			return
		}
		// Re-encoding turns one input byte into at most six (JSON escapes a
		// "<" as six bytes), and the reader refuses lines over 1 MiB.
		if len(data) > 1<<20/6 {
			return
		}
		first := emitTimeline(t, run)
		back, err := ReadTimeline(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("reading back what the emitter wrote: %v\n%s", err, first)
		}
		want := run.Header
		if want.Every <= 0 {
			want.Every = DefaultTimelineEvery
		}
		if back.Header != want || len(back.Records) != len(run.Records) {
			t.Fatalf("round trip: header %+v with %d records, want %+v with %d", back.Header, len(back.Records), want, len(run.Records))
		}
		for i, r := range back.Records {
			if w := run.Records[i]; r.Iter != w.Iter || r.Epoch != w.Epoch || r.Loss != w.Loss || len(r.Metrics) != len(w.Metrics) {
				t.Fatalf("record %d: round trip gave %+v, want %+v", i, r, w)
			}
		}
		if again := emitTimeline(t, back); !bytes.Equal(again, first) {
			t.Fatalf("re-emitting changed the file:\n%s\nvs\n%s", again, first)
		}

		n := len(back.Records)
		if n == 0 {
			return
		}
		// Tear the last record mid-line: it loses its closing brace.
		lines := bytes.SplitAfter(bytes.TrimSuffix(first, []byte("\n")), []byte("\n"))
		last := lines[len(lines)-1]
		prefix := first[:len(first)-len(last)-1]
		torn := last[:len(last)/2]
		cut, err := ReadTimeline(bytes.NewReader(append(append([]byte{}, prefix...), torn...)))
		if err != nil {
			t.Fatalf("torn last line rejected: %v", err)
		}
		if len(cut.Records) != n-1 {
			t.Fatalf("torn last line: %d records, want %d", len(cut.Records), n-1)
		}
		mid := append(append(append([]byte{}, prefix...), torn...), '\n')
		mid = append(append(mid, last...), '\n')
		if _, err := ReadTimeline(bytes.NewReader(mid)); err == nil {
			t.Fatal("torn middle line accepted")
		}
	})
}

// emitTimeline writes run through a TimelineEmitter; records without a
// snapshot get the empty registry's.
func emitTimeline(t *testing.T, run *TimelineRun) []byte {
	t.Helper()
	var buf bytes.Buffer
	em, err := NewTimelineEmitter(&buf, NewRegistry(), run.Header)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range run.Records {
		if err := em.Emit(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}
