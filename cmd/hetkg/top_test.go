package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hetkg/internal/metrics"
	"hetkg/internal/telemetry"
)

// fixtureView is a hand-built fleet snapshot: two healthy workers, one
// straggler, a shard, and a serve replica.
func fixtureView() telemetry.FleetView {
	hit := 0.75
	return telemetry.FleetView{
		Kind: telemetry.ViewKind,
		Processes: []telemetry.ProcessView{
			{ID: "serve/127.0.0.1:8080", Role: telemetry.RoleServe, Label: "127.0.0.1:8080", Reports: 4,
				AgeMS: 500, Rates: map[string]float64{"req_s": 1234}, HitRatio: &hit},
			{ID: "shard/machine-0", Role: telemetry.RoleShard, Label: "machine-0", Reports: 9,
				AgeMS: 900, Rates: map[string]float64{"rpc_s": 220, "bytes_s": 2_500_000}},
			{ID: "worker/w0", Role: telemetry.RoleWorker, Label: "w0", Reports: 10,
				AgeMS: 1000, Rates: map[string]float64{"iter_s": 100, "bytes_s": 50_000},
				History: []float64{90, 95, 100, 100}},
			{ID: "worker/w1", Role: telemetry.RoleWorker, Label: "w1", Reports: 10,
				AgeMS: 1100, Rates: map[string]float64{"iter_s": 20, "bytes_s": 10_000},
				History: []float64{100, 60, 30, 20}, Alerts: []string{telemetry.RuleStraggler}},
		},
		Alerts: []telemetry.Alert{{
			Rule: telemetry.RuleStraggler, Proc: "worker/w1", Value: 20, Threshold: 50,
			SinceMS: 4000, Message: "iter/s 20.0 vs fleet median 100.0 (z=-1.0)",
		}},
	}
}

func serveFixture(t *testing.T, v telemetry.FleetView) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(v); err != nil {
			t.Errorf("encoding fixture: %v", err)
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestRenderSnapshot(t *testing.T) {
	v := fixtureView()
	var buf bytes.Buffer
	render(&buf, &v)
	out := buf.String()
	for _, want := range []string{
		"fleet: 4 processes, 1 active alerts",
		"worker/w0", "worker/w1", "shard/machine-0", "serve/127.0.0.1:8080",
		"100.0", // w0 primary iter/s
		"50.0k", // w0 bytes/s with k suffix
		"2.5M",  // shard bytes/s with M suffix
		"1.2k",  // serve req/s
		"75%",   // serve hit ratio
		"▁▄██",  // w0 sparkline rises
		"█▄▁▁",  // w1 sparkline falls
		"straggler",
		"[straggler] worker/w1: iter/s 20.0 vs fleet median 100.0 (z=-1.0) (active 4s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderEmptyAndHealthy(t *testing.T) {
	var buf bytes.Buffer
	render(&buf, &telemetry.FleetView{Kind: telemetry.ViewKind})
	if !strings.Contains(buf.String(), "no processes have reported yet") {
		t.Errorf("empty view render:\n%s", buf.String())
	}

	buf.Reset()
	v := fixtureView()
	v.Alerts = nil
	render(&buf, &v)
	if !strings.Contains(buf.String(), "no active alerts") {
		t.Errorf("healthy view render:\n%s", buf.String())
	}
}

func TestFetchView(t *testing.T) {
	srv := serveFixture(t, fixtureView())
	v, err := fetchView(srv.URL + "/fleet")
	if err != nil {
		t.Fatalf("fetchView: %v", err)
	}
	if len(v.Processes) != 4 || len(v.Alerts) != 1 {
		t.Fatalf("view = %d processes, %d alerts", len(v.Processes), len(v.Alerts))
	}

	// A 404 (not a coordinator) and a non-fleet document must both error.
	if _, err := fetchView(srv.URL + "/nope"); err == nil {
		t.Error("404 accepted")
	}
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"kind":"hetkg-timeline/v1"}`))
	}))
	defer other.Close()
	if _, err := fetchView(other.URL); err == nil {
		t.Error("non-fleet document accepted")
	} else if !strings.Contains(err.Error(), telemetry.ViewKind) {
		t.Errorf("kind error not descriptive: %v", err)
	}
}

// TestFetchViewEndToEnd is the fault-injection drill end to end: a real
// aggregator under an injectable clock, three workers with one artificially
// slowed, served over HTTP and read through hetkg top's own fetch+render.
// The straggler rule must fire deterministically and show up both on the
// slow worker's row and in the active-alerts section — exactly what
// `hetkg top -once` prints against a live coordinator.
func TestFetchViewEndToEnd(t *testing.T) {
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	fleet := telemetry.NewFleet(telemetry.FleetConfig{Now: func() time.Time { return clock }})
	// Per-second iteration rates: w2 is the injected fault, crawling at a
	// fifth of the healthy pace.
	rates := map[string]int64{"w0": 100, "w1": 110, "w2": 20}
	totals := map[string]int64{}
	for round := 1; round <= 6; round++ {
		for label, rate := range rates {
			totals[label] += rate
			reg := metrics.NewRegistry()
			reg.Counter(metrics.MTrainIterations).Add(totals[label])
			if err := fleet.Ingest(telemetry.Report{
				Role: telemetry.RoleWorker, Label: label, Seq: int64(round), Metrics: reg.Snapshot(),
			}); err != nil {
				t.Fatal(err)
			}
		}
		clock = clock.Add(time.Second)
	}
	mux := http.NewServeMux()
	mux.Handle("/fleet", fleet)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	v, err := fetchView(srv.URL + "/fleet")
	if err != nil {
		t.Fatalf("fetchView: %v", err)
	}
	if len(v.Alerts) != 1 || v.Alerts[0].Rule != telemetry.RuleStraggler || v.Alerts[0].Proc != "worker/w2" {
		t.Fatalf("alerts = %+v, want one straggler on worker/w2", v.Alerts)
	}
	var buf bytes.Buffer
	render(&buf, v)
	out := buf.String()
	for _, want := range []string{
		"fleet: 3 processes, 1 active alerts",
		"worker/w0", "worker/w1",
		"[straggler] worker/w2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("end-to-end render missing %q:\n%s", want, out)
		}
	}
	// The straggler marker sits on the slow worker's row, not the healthy ones.
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(line, "worker/w2") && !strings.Contains(line, "straggler"):
			t.Errorf("straggler row unmarked: %q", line)
		case strings.Contains(line, "worker/w0") && strings.Contains(line, "straggler"):
			t.Errorf("healthy row marked: %q", line)
		}
	}
}

func TestWatchLoop(t *testing.T) {
	srv := serveFixture(t, fixtureView())
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	var buf bytes.Buffer
	alerted := watch(ctx, &buf, srv.URL+"/fleet", 50*time.Millisecond)
	if !alerted {
		t.Error("watch over an alerting fleet reported no alerts")
	}
	if !strings.Contains(buf.String(), "worker/w1") {
		t.Errorf("watch output missing process rows:\n%s", buf.String())
	}
}

func TestFleetURL(t *testing.T) {
	for in, want := range map[string]string{
		"127.0.0.1:6060":         "http://127.0.0.1:6060/fleet",
		"http://127.0.0.1:6060":  "http://127.0.0.1:6060/fleet",
		"http://127.0.0.1:6060/": "http://127.0.0.1:6060/fleet",
	} {
		if got := fleetURL(in); got != want {
			t.Errorf("fleetURL(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatters(t *testing.T) {
	if got := fmtRate(-1); got != "-" {
		t.Errorf("fmtRate(-1) = %q", got)
	}
	if got := fmtRate(999); got != "999.0" {
		t.Errorf("fmtRate(999) = %q", got)
	}
	if got := fmtHit(nil); got != "-" {
		t.Errorf("fmtHit(nil) = %q", got)
	}
	if got := fmtMS(450); got != "450ms" {
		t.Errorf("fmtMS(450) = %q", got)
	}
	if got := fmtMS(1234); got != "1.2s" {
		t.Errorf("fmtMS(1234) = %q", got)
	}
}
