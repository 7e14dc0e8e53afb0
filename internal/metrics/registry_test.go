package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a.count")
	c1.Add(3)
	c2 := r.Counter("a.count")
	if c1 != c2 {
		t.Fatal("same name returned distinct counters")
	}
	if c2.Value() != 3 {
		t.Fatalf("shared counter lost its value: %d", c2.Value())
	}
	g := r.Gauge("a.gauge")
	g.Set(1.5)
	if got := r.Gauge("a.gauge").Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as a gauge after a counter did not panic")
		}
	}()
	r.Gauge("x")
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Gauge("g").Set(0.25)
	r.Histogram("h").Observe(3)
	r.Timer("t").Observe(2 * time.Second)

	s := r.Snapshot()
	if v := s["c"]; v.Kind != KindCounter || v.Count != 7 {
		t.Fatalf("counter snapshot = %+v", v)
	}
	if v := s["g"]; v.Kind != KindGauge || v.Value != 0.25 {
		t.Fatalf("gauge snapshot = %+v", v)
	}
	if v := s["h"]; v.Kind != KindHistogram || v.Count != 1 || v.Sum != 3 {
		t.Fatalf("histogram snapshot = %+v", v)
	}
	if v := s["t"]; v.Kind != KindTimer || v.Count != 1 || v.Sum != 2 {
		t.Fatalf("timer snapshot = %+v", v)
	}

	det := s.Deterministic()
	if _, ok := det["t"]; ok {
		t.Fatal("Deterministic kept a timer")
	}
	if len(det) != 3 {
		t.Fatalf("Deterministic dropped too much: %v", det)
	}
}

// TestRegistryConcurrent exercises concurrent register/update/snapshot; run
// under -race (scripts/check.sh) it doubles as the registry race test.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared.count").Inc()
				r.Counter(fmt.Sprintf("worker.%d.count", w)).Inc()
				r.Histogram("shared.hist").ObserveInt(int64(i))
				r.Gauge("shared.gauge").Set(float64(i))
				if i%10 == 0 {
					_ = r.Snapshot()
					_ = r.Names()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared.count").Value(); got != workers*perWorker {
		t.Fatalf("shared.count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("shared.hist").Count(); got != workers*perWorker {
		t.Fatalf("shared.hist count = %d, want %d", got, workers*perWorker)
	}
	if got := len(r.Names()); got != workers+3 {
		t.Fatalf("got %d names, want %d", got, workers+3)
	}
}

func TestSnapshotFilter(t *testing.T) {
	r := NewRegistry()
	r.Counter("cluster.workers").Inc()
	r.Counter("cluster.heartbeats").Inc()
	r.Counter("serve.requests").Inc()
	r.Gauge("train.loss").Set(0.5)

	s := r.Snapshot()
	got := s.Filter("cluster.")
	if len(got) != 2 {
		t.Fatalf("Filter(cluster.) = %v, want 2 entries", got)
	}
	for name := range got {
		if name != "cluster.workers" && name != "cluster.heartbeats" {
			t.Fatalf("Filter kept %q", name)
		}
	}
	if len(s.Filter("")) != len(s) {
		t.Fatal("empty prefix is not the identity")
	}
	if len(s.Filter("nothing.")) != 0 {
		t.Fatal("unmatched prefix returned entries")
	}
}

// TestSnapshotQuantileLadder pins the exported quantile set (p50, p90,
// p95, p99) and its JSON field names — what operators read off /metrics
// and timeline records.
func TestSnapshotQuantileLadder(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for i := 1; i <= 100; i++ {
		h.ObserveInt(int64(i))
	}
	v := r.Snapshot()["lat"]
	if v.Quantiles == nil {
		t.Fatal("no quantiles on a populated histogram")
	}
	// Bucket upper bounds are powers of two: p50 → 64, p90/p95/p99 → 128.
	if q := v.Quantiles; q.P50 != 64 || q.P90 != 128 || q.P95 != 128 || q.P99 != 128 {
		t.Fatalf("quantiles = %+v", q)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"p50"`, `"p90"`, `"p95"`, `"p99"`} {
		if !bytes.Contains(b, []byte(field)) {
			t.Fatalf("marshalled value %s lacks %s", b, field)
		}
	}
}

// TestRegistrySnapshotWhileWriting hammers Snapshot from dedicated reader
// goroutines while writers are mid-Inc/Observe — the snapshot-under-write
// race test (run under -race by scripts/check.sh tier 2). Successive
// snapshots of a monotonic counter must never go backwards.
func TestRegistrySnapshotWhileWriting(t *testing.T) {
	r := NewRegistry()
	const writers = 4
	const perWriter = 500
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Counter("c").Inc()
				r.Histogram("h").ObserveInt(int64(i))
				r.Gauge("g").Set(float64(i))
				r.Timer("t").Observe(time.Microsecond)
			}
		}()
	}
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastC, lastH int64
			for {
				s := r.Snapshot()
				if v, ok := s["c"]; ok {
					if v.Count < lastC {
						t.Errorf("counter went backwards: %d -> %d", lastC, v.Count)
						return
					}
					lastC = v.Count
				}
				if v, ok := s["h"]; ok {
					if v.Count < lastH {
						t.Errorf("histogram count went backwards: %d -> %d", lastH, v.Count)
						return
					}
					lastH = v.Count
					var n int64
					for _, b := range v.Buckets {
						n += b.N
					}
					// Bucket increments land before the count increment, so a
					// torn read can only over-count buckets, never under.
					if n < v.Count-writers {
						t.Errorf("bucket sum %d fell behind count %d", n, v.Count)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := r.Counter("c").Value(); got != writers*perWriter {
		t.Fatalf("final count = %d, want %d", got, writers*perWriter)
	}
}
