package main

import (
	"flag"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hetkg"
	"hetkg/internal/metrics"
)

// TestTelemetryStopShipsFinalReport drives the dialed telemetry path of `ps
// -telemetry` / `serve -telemetry` against a loopback coordinator: stop must
// flush the shipper's final report — the one carrying the counters' last
// values — and come back only once the whole pipeline has wound down. The
// fleet's clock is the test's, one second between the first report and the
// final one, so the derived request rate is exactly the counter's growth.
func TestTelemetryStopShipsFinalReport(t *testing.T) {
	var clock atomic.Int64 // seconds past the epoch
	reporting := make(chan struct{}, 1)
	fleet := hetkg.NewFleetTelemetry(hetkg.FleetTelemetryConfig{
		Now: func() time.Time { return time.Unix(clock.Load(), 0) },
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "reporting") {
				reporting <- struct{}{}
			}
		},
	})
	coord, err := hetkg.NewMembership(hetkg.MemberConfig{Partitions: 1, Telemetry: fleet})
	if err != nil {
		t.Fatal(err)
	}
	shard, err := hetkg.BuildShard(hetkg.RunConfig{Dataset: "fb15k", Scale: hetkg.ScaleTiny, Machines: 1, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	acc := &hetkg.ShardAcceptor{Coordinator: coord}
	served := make(chan struct{})
	go func() {
		defer close(served)
		acc.Serve(l, shard)
	}()
	defer func() {
		l.Close()
		acc.Shutdown(time.Second)
		<-served
	}()

	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	ship := bindTelemetry(fs, "")
	// One report at start and none on the ticker: whatever else arrives is
	// stop's doing.
	if err := fs.Parse([]string{"-telemetry", l.Addr().String(), "-telemetry-every", "1h"}); err != nil {
		t.Fatal(err)
	}
	reg := hetkg.NewMetricsRegistry()
	requests := reg.Counter(metrics.MServeRequests)
	requests.Add(5)
	stop := ship(hetkg.TelemetryRoleServe, "replica-0", reg.Snapshot, nil, t.Logf)
	select {
	case <-reporting:
	case <-time.After(10 * time.Second):
		t.Fatal("no first report within 10s")
	}

	clock.Store(1)
	requests.Add(42)
	stop()

	v := fleet.View()
	if len(v.Processes) != 1 || v.Processes[0].ID != "serve/replica-0" {
		t.Fatalf("fleet = %+v", v.Processes)
	}
	if p := v.Processes[0]; p.Reports != 2 || p.Rates["req_s"] != 42 {
		t.Errorf("after stop the fleet holds %d reports at %v req/s; want 2, the final one 42 requests past the first", p.Reports, p.Rates["req_s"])
	}
}

// TestTelemetryStopAbandonsDial: with no coordinator to reach, stop ends the
// retry loop and returns.
func TestTelemetryStopAbandonsDial(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // a loopback port nothing listens on

	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	ship := bindTelemetry(fs, "")
	if err := fs.Parse([]string{"-telemetry", addr}); err != nil {
		t.Fatal(err)
	}
	unreachable := make(chan struct{}, 1)
	stop := ship(hetkg.TelemetryRoleServe, "replica-0", hetkg.NewMetricsRegistry().Snapshot, nil,
		func(format string, args ...any) {
			if strings.Contains(format, "unreachable") {
				unreachable <- struct{}{}
			}
		})
	select {
	case <-unreachable:
	case <-time.After(10 * time.Second):
		t.Fatal("dial loop never reported the coordinator unreachable")
	}
	stop()
}
