package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hetkg/internal/metrics"
	"hetkg/internal/span"
)

// fakeClock is a manually advanced clock for deterministic rate and alert
// computation.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// counterSnap builds a snapshot of monotonic counters from name→value.
func counterSnap(vals map[string]int64) metrics.Snapshot {
	s := make(metrics.Snapshot, len(vals))
	for name, v := range vals {
		s[name] = metrics.Value{Kind: metrics.KindCounter, Count: v}
	}
	return s
}

// workerSnap is a worker snapshot at a given iteration count with a fixed
// hit ratio shape (3 hits : 1 miss) and byte traffic.
func workerSnap(iters int64) metrics.Snapshot {
	return counterSnap(map[string]int64{
		metrics.MTrainIterations: iters,
		metrics.MPSBytesTx:       iters * 100,
		metrics.MPSBytesRx:       iters * 400,
		metrics.MCacheHits:       iters * 3,
		metrics.MCacheMisses:     iters,
	})
}

// feed ships n reports per worker at the given per-second iteration
// rates, advancing the clock one second between rounds. Returns the
// per-worker cumulative iteration counts for continuation.
func feed(t *testing.T, f *Fleet, clk *fakeClock, rounds int, rates map[string]int64, start map[string]int64) map[string]int64 {
	t.Helper()
	if start == nil {
		start = make(map[string]int64)
	}
	for r := 0; r < rounds; r++ {
		for label, rate := range rates {
			start[label] += rate
			err := f.Ingest(Report{
				Role:    RoleWorker,
				Label:   label,
				Seq:     start[label], // monotonic per worker
				Metrics: workerSnap(start[label]),
			})
			if err != nil {
				t.Fatalf("ingest %s: %v", label, err)
			}
		}
		clk.Advance(time.Second)
	}
	return start
}

func TestFleetRatesAndView(t *testing.T) {
	clk := newFakeClock()
	f := NewFleet(FleetConfig{Window: 8, Now: clk.Now})
	feed(t, f, clk, 5, map[string]int64{"w0": 100, "w1": 100}, nil)

	v := f.View()
	if v.Kind != ViewKind {
		t.Fatalf("kind = %q, want %q", v.Kind, ViewKind)
	}
	if len(v.Processes) != 2 {
		t.Fatalf("processes = %d, want 2", len(v.Processes))
	}
	p := v.Processes[0]
	if p.ID != "worker/w0" || p.Role != RoleWorker || p.Label != "w0" {
		t.Fatalf("unexpected first process %+v", p)
	}
	if p.Reports != 5 {
		t.Fatalf("reports = %d, want 5", p.Reports)
	}
	// 5 reports at 100 iters apart, 1s apart: window spans 4s and 400
	// iterations → exactly 100/s under the fake clock.
	if got := p.Rates["iter_s"]; got != 100 {
		t.Fatalf("iter_s = %v, want 100", got)
	}
	if got := p.Rates["bytes_s"]; got != 100*500 {
		t.Fatalf("bytes_s = %v, want 50000", got)
	}
	if p.HitRatio == nil || *p.HitRatio != 0.75 {
		t.Fatalf("hit ratio = %v, want 0.75", p.HitRatio)
	}
	if p.IntervalMS != 1000 {
		t.Fatalf("interval_ms = %v, want 1000", p.IntervalMS)
	}
	if len(p.History) != 4 {
		t.Fatalf("history length = %d, want 4", len(p.History))
	}
	for _, h := range p.History {
		if h != 100 {
			t.Fatalf("history = %v, want all 100", p.History)
		}
	}
	if len(v.Alerts) != 0 {
		t.Fatalf("unexpected alerts: %+v", v.Alerts)
	}
}

func TestFleetIngestValidation(t *testing.T) {
	f := NewFleet(FleetConfig{Now: newFakeClock().Now})
	snap := workerSnap(1)
	if err := f.Ingest(Report{Role: "gpu", Label: "x", Metrics: snap}); err == nil {
		t.Fatal("unknown role accepted")
	}
	if err := f.Ingest(Report{Role: RoleWorker, Metrics: snap}); err == nil {
		t.Fatal("empty label accepted")
	}
	if err := f.Ingest(Report{Role: RoleWorker, Label: "w0"}); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

func TestFleetStaleSeqDropped(t *testing.T) {
	clk := newFakeClock()
	f := NewFleet(FleetConfig{Now: clk.Now})
	for _, seq := range []int64{1, 2, 2, 1} { // duplicate and reordered
		if err := f.Ingest(Report{Role: RoleWorker, Label: "w0", Seq: seq, Metrics: workerSnap(seq * 10)}); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	v := f.View()
	if v.Processes[0].Reports != 2 {
		t.Fatalf("reports = %d, want 2 (stale dropped)", v.Processes[0].Reports)
	}
}

// TestStragglerDeterministic is the fault-injection acceptance test: three
// workers report under a fake clock, one at a fifth of the others' rate.
// The straggler rule must fire on exactly that worker, deterministically,
// and surface in the fleet.* metrics, the fleet.alert span stream, and the
// /fleet JSON.
func TestStragglerDeterministic(t *testing.T) {
	clk := newFakeClock()
	var logs []string
	f := NewFleet(FleetConfig{
		Window: 8,
		Now:    clk.Now,
		Logf:   func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})
	reg := metrics.NewRegistry()
	f.Instrument(reg)
	col := span.NewCollector(span.CollectorConfig{Every: 1, Capacity: 16})
	f.Trace(col.Tracer(0, 0))

	rates := map[string]int64{"w0": 100, "w1": 110, "w2": 20} // w2 lags: 20 < 0.5×105
	feed(t, f, clk, 6, rates, nil)

	v := f.View()
	if len(v.Alerts) != 1 {
		t.Fatalf("alerts = %+v, want exactly one straggler", v.Alerts)
	}
	a := v.Alerts[0]
	if a.Rule != RuleStraggler || a.Proc != "worker/w2" {
		t.Fatalf("alert = %+v, want straggler on worker/w2", a)
	}
	if a.Value != 20 {
		t.Fatalf("alert value = %v, want 20 iter/s", a.Value)
	}
	if a.Threshold != 50 { // 0.5 × median(100, 110, 20) = 0.5 × 100
		t.Fatalf("alert threshold = %v, want 50", a.Threshold)
	}
	if !strings.Contains(a.Message, "z=") {
		t.Fatalf("message %q lacks z-score", a.Message)
	}
	// The straggling process's row carries the rule.
	var w2 *ProcessView
	for i := range v.Processes {
		if v.Processes[i].Label == "w2" {
			w2 = &v.Processes[i]
		}
	}
	if w2 == nil || len(w2.Alerts) != 1 || w2.Alerts[0] != RuleStraggler {
		t.Fatalf("w2 row alerts = %+v, want [straggler]", w2)
	}

	snap := reg.Snapshot()
	if got := snap[metrics.MFleetStragglers].Value; got != 1 {
		t.Fatalf("fleet.stragglers = %v, want 1", got)
	}
	if got := snap[metrics.MFleetAlertsActive].Value; got != 1 {
		t.Fatalf("fleet.alerts_active = %v, want 1", got)
	}
	if got := snap[metrics.MFleetAlertsTotal].Count; got != 1 {
		t.Fatalf("fleet.alerts_total = %d, want 1", got)
	}
	if got := snap[metrics.MFleetProcesses].Value; got != 3 {
		t.Fatalf("fleet.processes = %v, want 3", got)
	}
	if got := snap[metrics.MFleetReports].Count; got != 18 {
		t.Fatalf("fleet.reports = %d, want 18", got)
	}

	spans := col.Drain()
	if len(spans) != 1 || spans[0].Name != span.NFleetAlert {
		t.Fatalf("spans = %+v, want one fleet.alert", spans)
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "ALERT straggler on worker/w2") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no activation log line in %q", logs)
	}
}

// TestStragglerClears verifies the down-debounce: once the slow worker
// recovers to fleet speed, the alert clears after DebounceDown healthy
// reports and the gauges return to zero.
func TestStragglerClears(t *testing.T) {
	clk := newFakeClock()
	f := NewFleet(FleetConfig{Window: 4, Now: clk.Now})
	reg := metrics.NewRegistry()
	f.Instrument(reg)

	totals := feed(t, f, clk, 6, map[string]int64{"w0": 100, "w1": 100, "w2": 10}, nil)
	if n := len(f.View().Alerts); n != 1 {
		t.Fatalf("alerts before recovery = %d, want 1", n)
	}
	// Recovery: with Window 4 the slow samples age out quickly.
	feed(t, f, clk, 8, map[string]int64{"w0": 100, "w1": 100, "w2": 100}, totals)
	if alerts := f.View().Alerts; len(alerts) != 0 {
		t.Fatalf("alerts after recovery = %+v, want none", alerts)
	}
	snap := reg.Snapshot()
	if got := snap[metrics.MFleetAlertsActive].Value; got != 0 {
		t.Fatalf("fleet.alerts_active = %v, want 0", got)
	}
	if got := snap[metrics.MFleetStragglers].Value; got != 0 {
		t.Fatalf("fleet.stragglers = %v, want 0", got)
	}
	// The activation remains counted.
	if got := snap[metrics.MFleetAlertsTotal].Count; got != 1 {
		t.Fatalf("fleet.alerts_total = %d, want 1", got)
	}
}

// TestStragglerNeedsPeers pins that the rule stays silent below the
// minimum worker count — two workers cannot vote one of them slow.
func TestStragglerNeedsPeers(t *testing.T) {
	clk := newFakeClock()
	f := NewFleet(FleetConfig{Now: clk.Now})
	feed(t, f, clk, 6, map[string]int64{"w0": 100, "w1": 5}, nil)
	if alerts := f.View().Alerts; len(alerts) != 0 {
		t.Fatalf("alerts = %+v, want none with 2 workers", alerts)
	}
}

// TestDebounceSingleBreachSilent pins that one breaching evaluation does
// not activate an alert (DebounceUp = 2 by default).
func TestDebounceSingleBreachSilent(t *testing.T) {
	clk := newFakeClock()
	f := NewFleet(FleetConfig{Window: 8, Now: clk.Now, Health: HealthConfig{DebounceUp: 3}})
	// Three rounds: rates become computable (and breach) at round 2 and 3
	// — only two breaching evaluations with new data, below DebounceUp 3.
	feed(t, f, clk, 3, map[string]int64{"w0": 100, "w1": 100, "w2": 5}, nil)
	if alerts := f.View().Alerts; len(alerts) != 0 {
		t.Fatalf("alerts = %+v, want none before debounce-up", alerts)
	}
}

func TestCacheDegradedFleetWide(t *testing.T) {
	clk := newFakeClock()
	var logs []string
	f := NewFleet(FleetConfig{
		Window: 8,
		Now:    clk.Now,
		Logf:   func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})
	// One worker, all misses: hit ratio 0 < 0.2 floor once accesses
	// clear MinAccesses (256).
	var iters int64
	for r := 0; r < 6; r++ {
		iters += 100
		err := f.Ingest(Report{Role: RoleWorker, Label: "w0", Seq: int64(r + 1), Metrics: counterSnap(map[string]int64{
			metrics.MTrainIterations: iters,
			metrics.MCacheHits:       0,
			metrics.MCacheMisses:     iters * 2,
		})})
		if err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	v := f.View()
	if len(v.Alerts) != 1 || v.Alerts[0].Rule != RuleCacheDegraded {
		t.Fatalf("alerts = %+v, want cache_degraded", v.Alerts)
	}
	if v.Alerts[0].Proc != "" {
		t.Fatalf("cache_degraded proc = %q, want fleet-wide (empty)", v.Alerts[0].Proc)
	}
	if v.Alerts[0].Value != 0 {
		t.Fatalf("value = %v, want 0 hit ratio", v.Alerts[0].Value)
	}
}

// TestServeReplicaLeavesTrainingHitRatioAlone pins that the fleet hit ratio
// is the training cache's: a serve replica shipping hit/miss counters of its
// own (named as hetkg serve's hot tier once published them) at a 0.01 ratio
// must neither drag a healthy 0.6 worker under the cache_degraded floor nor
// get a hit ratio of its own in the fleet view.
func TestServeReplicaLeavesTrainingHitRatioAlone(t *testing.T) {
	clk := newFakeClock()
	f := NewFleet(FleetConfig{Window: 8, Now: clk.Now})
	for r := int64(1); r <= 6; r++ {
		reports := []Report{
			{Role: RoleWorker, Label: "w0", Seq: r, Metrics: counterSnap(map[string]int64{
				metrics.MTrainIterations: r * 100,
				metrics.MCacheHits:       r * 300,
				metrics.MCacheMisses:     r * 200,
			})},
			{Role: RoleServe, Label: "127.0.0.1:8080", Seq: r, Metrics: counterSnap(map[string]int64{
				metrics.MServeRequests: r * 1000,
				"serve.cache.hits":     r * 30,
				"serve.cache.misses":   r * 2970,
			})},
		}
		for _, rep := range reports {
			if err := f.Ingest(rep); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(time.Second)
	}
	v := f.View()
	if len(v.Alerts) != 0 {
		t.Fatalf("alerts = %+v, want none: the training cache hits 0.6", v.Alerts)
	}
	for _, p := range v.Processes {
		switch p.Role {
		case RoleServe:
			if p.HitRatio != nil {
				t.Errorf("serve replica has hit_ratio %v, want none", *p.HitRatio)
			}
		case RoleWorker:
			if p.HitRatio == nil || *p.HitRatio != 0.6 {
				t.Errorf("worker hit_ratio = %v, want 0.6", p.HitRatio)
			}
		}
	}
}

func TestCommStall(t *testing.T) {
	clk := newFakeClock()
	f := NewFleet(FleetConfig{Window: 8, Now: clk.Now})
	// Byte counters move for 3 reports, then freeze while iterations
	// continue — the comm path stalled, not the process. Window 8 keeps
	// the early moving samples in range; the rule needs the full-window
	// delta to be zero, so advance enough frozen reports.
	send := func(seq, iters, bytes int64) {
		err := f.Ingest(Report{Role: RoleWorker, Label: "w0", Seq: seq, Metrics: counterSnap(map[string]int64{
			metrics.MTrainIterations: iters,
			metrics.MPSBytesTx:       bytes,
			metrics.MPSBytesRx:       bytes,
		})})
		if err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	var seq int64
	for i := int64(1); i <= 3; i++ {
		seq++
		send(seq, i*100, i*1000)
	}
	for i := int64(4); i <= 14; i++ { // frozen bytes fill the whole window
		seq++
		send(seq, i*100, 3000)
	}
	v := f.View()
	if len(v.Alerts) != 1 || v.Alerts[0].Rule != RuleCommStall {
		t.Fatalf("alerts = %+v, want comm_stall", v.Alerts)
	}
	if v.Alerts[0].Proc != "worker/w0" {
		t.Fatalf("proc = %q, want worker/w0", v.Alerts[0].Proc)
	}
}

// TestCommStallColdStartSilent pins that a process that never had traffic
// (bytes stuck at zero) is not a comm stall — it has not started yet.
func TestCommStallColdStartSilent(t *testing.T) {
	clk := newFakeClock()
	f := NewFleet(FleetConfig{Window: 4, Now: clk.Now})
	for i := int64(1); i <= 8; i++ {
		err := f.Ingest(Report{Role: RoleWorker, Label: "w0", Seq: i, Metrics: counterSnap(map[string]int64{
			metrics.MTrainIterations: i * 100,
		})})
		if err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	if alerts := f.View().Alerts; len(alerts) != 0 {
		t.Fatalf("alerts = %+v, want none for traffic-free process", alerts)
	}
}

// TestTelemetryLag verifies that a process that stops reporting is
// flagged from View() alone — a silently dead process needs no fresh
// ingest to be noticed.
func TestTelemetryLag(t *testing.T) {
	clk := newFakeClock()
	f := NewFleet(FleetConfig{Window: 8, Now: clk.Now})
	feed(t, f, clk, 4, map[string]int64{"w0": 100}, nil)
	// Cadence is 1s; LagFactor 4 → silence beyond 4s breaches. The lag
	// rule debounces on distinct evaluation instants (its subject is
	// silent by definition), so two View() reads at different times
	// activate it.
	clk.Advance(10 * time.Second)
	f.View()
	clk.Advance(time.Second)
	v := f.View()
	var lagged []Alert
	for _, a := range v.Alerts {
		if a.Rule == RuleTelemetryLag {
			lagged = append(lagged, a)
		}
	}
	if len(lagged) != 1 || lagged[0].Proc != "worker/w0" {
		t.Fatalf("alerts = %+v, want telemetry_lag on worker/w0", v.Alerts)
	}
	if v.Processes[0].AgeMS != 12000 {
		t.Fatalf("age_ms = %v, want 12000", v.Processes[0].AgeMS)
	}
}

func TestFleetServeHTTP(t *testing.T) {
	clk := newFakeClock()
	f := NewFleet(FleetConfig{Now: clk.Now})
	feed(t, f, clk, 3, map[string]int64{"w0": 50}, nil)

	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest("GET", "/fleet", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var v FleetView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if v.Kind != ViewKind || len(v.Processes) != 1 || v.Processes[0].ID != "worker/w0" {
		t.Fatalf("decoded view = %+v", v)
	}
}

// fakeSender records shipped reports.
type fakeSender struct {
	mu   sync.Mutex
	reps []Report
}

func (s *fakeSender) SendTelemetry(r Report) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reps = append(s.reps, r)
	return nil
}

func (s *fakeSender) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reps)
}

func TestShipper(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter(metrics.MServeRequests).Add(7)
	var sink fakeSender
	sh := NewShipper(RoleServe, "127.0.0.1:9", reg.Snapshot, &sink, time.Hour, nil)
	sh.Start()
	// Immediate first report, then one final report at Stop.
	deadline := time.Now().Add(5 * time.Second)
	for sink.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	sh.Stop()
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.reps) != 2 {
		t.Fatalf("reports = %d, want 2 (startup + shutdown)", len(sink.reps))
	}
	for i, r := range sink.reps {
		if r.Role != RoleServe || r.Label != "127.0.0.1:9" || r.Seq != int64(i+1) {
			t.Fatalf("report %d = %+v", i, r)
		}
		if r.Metrics[metrics.MServeRequests].Count != 7 {
			t.Fatalf("report %d metric count = %d", i, r.Metrics[metrics.MServeRequests].Count)
		}
	}
}

func TestPrimaryRate(t *testing.T) {
	cases := map[string]string{RoleWorker: "iter_s", RoleShard: "rpc_s", RoleServe: "req_s", "bogus": ""}
	for role, want := range cases {
		if got := PrimaryRate(role); got != want {
			t.Fatalf("PrimaryRate(%q) = %q, want %q", role, got, want)
		}
	}
}

// TestCommStallDegradedDiagnosis pins that a comm stall with open circuit
// breakers is diagnosed as a shard outage (degraded mode) rather than a
// mystery freeze, and that the breaker gauge surfaces as LinksDown in the
// process view.
func TestCommStallDegradedDiagnosis(t *testing.T) {
	clk := newFakeClock()
	f := NewFleet(FleetConfig{Window: 8, Now: clk.Now})
	send := func(seq, iters, bytes int64, open float64) {
		snap := counterSnap(map[string]int64{
			metrics.MTrainIterations: iters,
			metrics.MPSBytesTx:       bytes,
			metrics.MPSBytesRx:       bytes,
		})
		snap[metrics.MPSLinkBreakerOpen] = metrics.Value{Kind: metrics.KindGauge, Value: open}
		if err := f.Ingest(Report{Role: RoleWorker, Label: "w0", Seq: seq, Metrics: snap}); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	var seq int64
	for i := int64(1); i <= 3; i++ {
		seq++
		send(seq, i*100, i*1000, 0)
	}
	for i := int64(4); i <= 14; i++ { // bytes frozen, one breaker open
		seq++
		send(seq, i*100, 3000, 1)
	}
	v := f.View()
	if len(v.Alerts) != 1 || v.Alerts[0].Rule != RuleCommStall {
		t.Fatalf("alerts = %+v, want comm_stall", v.Alerts)
	}
	if !strings.Contains(v.Alerts[0].Message, "degraded mode") {
		t.Errorf("stall with open breaker should be diagnosed as degraded, got %q", v.Alerts[0].Message)
	}
	if len(v.Processes) != 1 || v.Processes[0].LinksDown == nil {
		t.Fatalf("process view missing links_down: %+v", v.Processes)
	}
	if *v.Processes[0].LinksDown != 1 {
		t.Errorf("links_down = %d, want 1", *v.Processes[0].LinksDown)
	}

	// Recovery: the breaker closes and traffic resumes — the view reports
	// the link healthy again (0, not absent).
	for i := int64(15); i <= 18; i++ {
		seq++
		send(seq, i*100, i*1000, 0)
	}
	v = f.View()
	if v.Processes[0].LinksDown == nil || *v.Processes[0].LinksDown != 0 {
		t.Errorf("links_down after recovery = %v, want 0", v.Processes[0].LinksDown)
	}
}
