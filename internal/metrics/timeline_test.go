package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestTimelineRoundTrip emits records from a live registry and decodes them
// back, checking header, record, and metric fidelity.
func TestTimelineRoundTrip(t *testing.T) {
	reg := NewRegistry()
	hits := reg.Counter(MCacheHits)
	loss := reg.Gauge(MTrainLoss)
	stale := reg.Histogram(MCacheStaleness)
	reg.Timer(MTrainCompWall).Observe(time.Millisecond)

	var buf bytes.Buffer
	em, err := NewTimelineEmitter(&buf, reg, TimelineHeader{
		System: "HET-KG-D", Dataset: "fb15k", Seed: 42, Every: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if em.Every() != 5 {
		t.Fatalf("Every() = %d, want 5", em.Every())
	}
	if em.ShouldEmit(0) || em.ShouldEmit(7) || !em.ShouldEmit(10) {
		t.Fatal("ShouldEmit grid wrong")
	}
	for i := 1; i <= 3; i++ {
		hits.Add(10)
		loss.Set(1.0 / float64(i))
		stale.ObserveInt(int64(i))
		rec := TimelineRecord{
			Iter:  i * 5,
			Epoch: 1,
			Loss:  1.0 / float64(i),
			Wall:  &TimelineWall{ElapsedMS: float64(i)},
		}
		if err := em.Emit(rec); err != nil {
			t.Fatal(err)
		}
	}

	run, err := ReadTimeline(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if run.Header.Kind != TimelineKind || run.Header.System != "HET-KG-D" ||
		run.Header.Dataset != "fb15k" || run.Header.Every != 5 || run.Header.Seed != 42 {
		t.Fatalf("header = %+v", run.Header)
	}
	if len(run.Records) != 3 {
		t.Fatalf("got %d records, want 3", len(run.Records))
	}
	last := run.Records[2]
	if last.Iter != 15 || last.Epoch != 1 || last.Loss != 1.0/3.0 {
		t.Fatalf("last record = %+v", last)
	}
	if v := last.Metrics[MCacheHits]; v.Kind != KindCounter || v.Count != 30 {
		t.Fatalf("cache.hits in last record = %+v", v)
	}
	if v := last.Metrics[MCacheStaleness]; v.Kind != KindHistogram || v.Count != 3 || v.Quantiles == nil {
		t.Fatalf("staleness in last record = %+v", v)
	} else if q := v.Quantiles; q.P50 != 2 || q.P90 != 4 || q.P95 != 4 || q.P99 != 4 {
		// Observations 1, 2, 3 land in buckets with upper bounds 1, 2, 4:
		// the full quantile ladder survives the timeline round trip.
		t.Fatalf("staleness quantiles = %+v", q)
	}
	if _, ok := last.Metrics[MTrainCompWall]; ok {
		t.Fatal("timer leaked into a timeline record")
	}
	if last.Wall == nil || last.Wall.ElapsedMS != 3 {
		t.Fatalf("wall = %+v", last.Wall)
	}
}

func TestTimelineDefaultEvery(t *testing.T) {
	var buf bytes.Buffer
	em, err := NewTimelineEmitter(&buf, NewRegistry(), TimelineHeader{})
	if err != nil {
		t.Fatal(err)
	}
	if em.Every() != DefaultTimelineEvery {
		t.Fatalf("Every() = %d, want %d", em.Every(), DefaultTimelineEvery)
	}
}

// TestReadTimelineToleratesTruncatedTail simulates a run killed mid-write:
// the final record is cut mid-JSON. The complete prefix must parse; the same
// malformed line anywhere but last must stay an error.
func TestReadTimelineToleratesTruncatedTail(t *testing.T) {
	header := `{"kind":"hetkg-timeline/v1","every":5,"seed":1}` + "\n"
	rec1 := `{"iter":5,"epoch":1,"loss":2.5}` + "\n"
	rec2 := `{"iter":10,"epoch":1,"loss":2.1}` + "\n"
	cut := `{"iter":15,"epoch":1,"lo` // SIGKILL mid-record, no newline

	run, err := ReadTimeline(strings.NewReader(header + rec1 + rec2 + cut))
	if err != nil {
		t.Fatalf("truncated tail rejected: %v", err)
	}
	if len(run.Records) != 2 {
		t.Fatalf("got %d records, want the 2 complete ones", len(run.Records))
	}
	if run.Records[1].Iter != 10 || run.Records[1].Loss != 2.1 {
		t.Fatalf("last complete record = %+v", run.Records[1])
	}

	// A trailing truncated line followed only by blank lines is still a tail.
	run, err = ReadTimeline(strings.NewReader(header + rec1 + cut + "\n\n"))
	if err != nil {
		t.Fatalf("truncated tail before blank lines rejected: %v", err)
	}
	if len(run.Records) != 1 {
		t.Fatalf("got %d records, want 1", len(run.Records))
	}

	// The same bad line mid-file is corruption, not truncation.
	if _, err := ReadTimeline(strings.NewReader(header + rec1 + cut + "\n" + rec2)); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func TestReadTimelineRejectsOtherKinds(t *testing.T) {
	in := `{"kind":"hetkg-trace/v1"}` + "\n"
	if _, err := ReadTimeline(strings.NewReader(in)); err == nil {
		t.Fatal("accepted a non-timeline file")
	}
	if _, err := ReadTimeline(strings.NewReader("")); err == nil {
		t.Fatal("accepted an empty file")
	}
}
