package ps

import (
	"net"
	"strings"
	"testing"
	"time"

	"hetkg/internal/metrics"
	"hetkg/internal/telemetry"
)

// TestTelemetryOverTCP drives op 'T' through the real TCP wire: a
// coordinator shard hosting a Fleet aggregator, a CoordClient shipping
// labeled snapshots, and the readable refusals from a non-coordinator
// shard and a coordinator without an aggregator.
func TestTelemetryOverTCP(t *testing.T) {
	cluster := testCluster(t, 2)
	fleet := telemetry.NewFleet(telemetry.FleetConfig{})
	m, err := NewMembership(MemberConfig{Partitions: 2, Telemetry: fleet})
	if err != nil {
		t.Fatal(err)
	}

	serve := func(coord *Membership) (addr string, stop func()) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		acc := &Acceptor{Coordinator: coord}
		done := make(chan struct{})
		go func() {
			acc.Serve(l, cluster.Servers[0])
			close(done)
		}()
		return l.Addr().String(), func() {
			l.Close()
			acc.Shutdown(time.Second)
			<-done
		}
	}

	addr, stop := serve(m)
	defer stop()
	cc, err := DialCoordinator(addr, time.Second)
	if err != nil {
		t.Fatalf("DialCoordinator: %v", err)
	}
	defer cc.Close()

	reg := metrics.NewRegistry()
	reg.Counter(metrics.MTrainIterations).Add(42)
	reg.Gauge(metrics.MTrainLoss).Set(0.5)
	for seq := int64(1); seq <= 2; seq++ {
		err := cc.SendTelemetry(telemetry.Report{
			Role:    telemetry.RoleWorker,
			Label:   "tcp-worker",
			Seq:     seq,
			Metrics: reg.Snapshot(),
		})
		if err != nil {
			t.Fatalf("SendTelemetry over TCP: %v", err)
		}
	}
	v := fleet.View()
	if len(v.Processes) != 1 || v.Processes[0].ID != "worker/tcp-worker" {
		t.Fatalf("fleet view = %+v", v.Processes)
	}
	if v.Processes[0].Reports != 2 {
		t.Fatalf("reports = %d, want 2", v.Processes[0].Reports)
	}

	// A malformed report surfaces the aggregator's error to the sender.
	if err := cc.SendTelemetry(telemetry.Report{Role: "gpu", Label: "x", Metrics: reg.Snapshot()}); err == nil {
		t.Error("bad role accepted over the wire")
	}

	// A plain shard (no coordinator) refuses telemetry by name.
	addr2, stop2 := serve(nil)
	defer stop2()
	cc2, err := DialCoordinator(addr2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cc2.Close()
	err = cc2.SendTelemetry(telemetry.Report{Role: telemetry.RoleWorker, Label: "w", Metrics: reg.Snapshot()})
	if err == nil || !strings.Contains(err.Error(), "not the coordinator") {
		t.Fatalf("non-coordinator refusal = %v", err)
	}
}

// TestMembershipSendTelemetryInProcess covers the in-process Sender path
// and the no-aggregator refusal.
func TestMembershipSendTelemetryInProcess(t *testing.T) {
	fleet := telemetry.NewFleet(telemetry.FleetConfig{})
	m, err := NewMembership(MemberConfig{Partitions: 1, Telemetry: fleet})
	if err != nil {
		t.Fatal(err)
	}
	var sender telemetry.Sender = m // compile-time: *Membership is a Sender
	reg := metrics.NewRegistry()
	if err := sender.SendTelemetry(telemetry.Report{Role: telemetry.RoleWorker, Label: "w0", Seq: 1, Metrics: reg.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	if fleet.Processes() != 1 {
		t.Fatalf("processes = %d, want 1", fleet.Processes())
	}

	bare, err := NewMembership(MemberConfig{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.SendTelemetry(telemetry.Report{Role: telemetry.RoleWorker, Label: "w0", Metrics: reg.Snapshot()}); err == nil {
		t.Error("membership without a Fleet accepted telemetry")
	}
}
