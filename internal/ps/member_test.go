package ps

import (
	"encoding/json"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"hetkg/internal/chaos"
	"hetkg/internal/metrics"
	"hetkg/internal/telemetry"
)

// fakeClock is a manually-advanced clock for deterministic failure
// detection tests.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) advance(d time.Duration) { c.now = c.now.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{now: time.Unix(1000, 0)} }
func clockConfig(c *fakeClock, parts int) MemberConfig {
	return MemberConfig{
		Partitions:     parts,
		ShardAddrs:     []string{"a:1", "b:2"},
		HeartbeatEvery: time.Second,
		Now:            c.Now,
	}
}

func TestMembershipJoinGrantsPreferredAndSpreads(t *testing.T) {
	clk := newFakeClock()
	m, err := NewMembership(clockConfig(clk, 4))
	if err != nil {
		t.Fatal(err)
	}
	j1, err := m.Join(JoinRequest{Label: "w1", Preferred: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Sole worker: preferred granted, orphans spread to it too.
	if len(j1.Assignments) != 4 {
		t.Fatalf("sole worker got %d assignments, want all 4: %+v", len(j1.Assignments), j1.Assignments)
	}
	if len(j1.ShardAddrs) != 2 || j1.ShardAddrs[0] != "a:1" {
		t.Errorf("ShardAddrs = %v", j1.ShardAddrs)
	}
	if j1.Partitions != 4 || j1.HeartbeatEvery != time.Second {
		t.Errorf("reply metadata = %+v", j1)
	}

	// Second worker joins before any partition started: bounded preemption
	// moves un-started partitions until loads are within 1.
	j2, err := m.Join(JoinRequest{Label: "w2", Preferred: []int{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(j2.Assignments) != 2 {
		t.Fatalf("second worker got %d assignments, want 2: %+v", len(j2.Assignments), j2.Assignments)
	}
	snap := m.Snapshot()
	if snap.Workers != 2 || snap.Unassigned != 0 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestMembershipNoPreemptionOfStartedPartitions(t *testing.T) {
	clk := newFakeClock()
	m, err := NewMembership(clockConfig(clk, 2))
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := m.Join(JoinRequest{Label: "w1"})
	// w1 reports progress on both partitions: they are now started.
	hb, err := m.Heartbeat(HeartbeatRequest{WorkerID: j1.WorkerID, Progress: []PartitionProgress{
		{Partition: 0, Epoch: 1, Iteration: 5},
		{Partition: 1, Epoch: 1, Iteration: 5},
	}})
	if err != nil || len(hb.Assignments) != 2 {
		t.Fatalf("heartbeat: %v, assignments %+v", err, hb.Assignments)
	}
	j2, err := m.Join(JoinRequest{Label: "w2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(j2.Assignments) != 0 {
		t.Errorf("started partitions were preempted: %+v", j2.Assignments)
	}
}

// TestMembershipHeartbeatTimeout is the fake-clock failure-detection test:
// a worker that stops heartbeating past WorkerTimeout is expired on the
// next membership RPC, its partitions move to a live worker with the last
// progress heard, and a late heartbeat from the expired worker reports
// Unknown so it re-joins.
func TestMembershipHeartbeatTimeout(t *testing.T) {
	clk := newFakeClock()
	cfg := clockConfig(clk, 2)
	cfg.WorkerTimeout = 3 * time.Second
	m, err := NewMembership(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	m.Instrument(reg)

	j1, _ := m.Join(JoinRequest{Label: "w1", Preferred: []int{0}})
	j2, _ := m.Join(JoinRequest{Label: "w2", Preferred: []int{1}})

	// Both beat at t+1s to learn their post-rebalance partitions; w1 then
	// reports progress on whichever partition it actually holds.
	clk.advance(time.Second)
	hb1, err := m.Heartbeat(HeartbeatRequest{WorkerID: j1.WorkerID})
	if err != nil {
		t.Fatal(err)
	}
	if len(hb1.Assignments) != 1 {
		t.Fatalf("w1 assignments = %+v, want 1 after the second join", hb1.Assignments)
	}
	w1part := hb1.Assignments[0].Partition
	if _, err := m.Heartbeat(HeartbeatRequest{WorkerID: j1.WorkerID, Progress: []PartitionProgress{
		{Partition: w1part, Epoch: 2, Iteration: 7},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Heartbeat(HeartbeatRequest{WorkerID: j2.WorkerID}); err != nil {
		t.Fatal(err)
	}

	// w1 goes silent. Just inside the timeout nothing happens.
	clk.advance(3 * time.Second)
	hb, err := m.Heartbeat(HeartbeatRequest{WorkerID: j2.WorkerID})
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Assignments) != 1 {
		t.Fatalf("w2 assignments before expiry = %+v", hb.Assignments)
	}

	// One more second: w1 is past the timeout; w2's next beat sweeps it and
	// adopts w1's partition at the last reported position.
	clk.advance(time.Second)
	hb, err = m.Heartbeat(HeartbeatRequest{WorkerID: j2.WorkerID})
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Assignments) != 2 {
		t.Fatalf("w2 assignments after expiry = %+v", hb.Assignments)
	}
	for _, a := range hb.Assignments {
		if a.Partition == w1part && (a.Epoch != 2 || a.Iteration != 7) {
			t.Errorf("partition %d resume hint = epoch %d iter %d, want 2/7", w1part, a.Epoch, a.Iteration)
		}
	}
	if got := reg.Counter(metrics.MClusterWorkerFailures).Value(); got != 1 {
		t.Errorf("cluster.worker_failures = %d, want 1", got)
	}

	// The late heartbeat from the expired worker is told to re-join.
	late, err := m.Heartbeat(HeartbeatRequest{WorkerID: j1.WorkerID})
	if err != nil {
		t.Fatal(err)
	}
	if !late.Unknown {
		t.Error("expired worker's heartbeat not flagged Unknown")
	}
}

func TestMembershipGracefulLeaveReassignsImmediately(t *testing.T) {
	clk := newFakeClock()
	m, err := NewMembership(clockConfig(clk, 2))
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := m.Join(JoinRequest{Label: "w1", Preferred: []int{0}})
	j2, _ := m.Join(JoinRequest{Label: "w2", Preferred: []int{1}})
	hb1, err := m.Heartbeat(HeartbeatRequest{WorkerID: j1.WorkerID})
	if err != nil || len(hb1.Assignments) != 1 {
		t.Fatalf("w1 heartbeat: %v, assignments %+v", err, hb1.Assignments)
	}
	w1part := hb1.Assignments[0].Partition
	if err := m.Leave(LeaveRequest{WorkerID: j1.WorkerID, Progress: []PartitionProgress{
		{Partition: w1part, Epoch: 3, Iteration: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	// No timeout wait: w2's next beat already owns both partitions.
	hb, err := m.Heartbeat(HeartbeatRequest{WorkerID: j2.WorkerID})
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Assignments) != 2 {
		t.Fatalf("assignments after leave = %+v", hb.Assignments)
	}
	for _, a := range hb.Assignments {
		if a.Partition == w1part && a.Epoch != 3 {
			t.Errorf("leave progress lost: %+v", a)
		}
	}
}

func TestMembershipDonePartitionsFinishTheRun(t *testing.T) {
	clk := newFakeClock()
	m, err := NewMembership(clockConfig(clk, 2))
	if err != nil {
		t.Fatal(err)
	}
	j, _ := m.Join(JoinRequest{Label: "w"})
	hb, err := m.Heartbeat(HeartbeatRequest{WorkerID: j.WorkerID, Progress: []PartitionProgress{
		{Partition: 0, Done: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if hb.AllDone {
		t.Error("AllDone with one partition still running")
	}
	if len(hb.Assignments) != 1 || hb.Assignments[0].Partition != 1 {
		t.Errorf("assignments = %+v, want only partition 1", hb.Assignments)
	}
	hb, err = m.Heartbeat(HeartbeatRequest{WorkerID: j.WorkerID, Progress: []PartitionProgress{
		{Partition: 0, Done: true}, // idempotent re-report
		{Partition: 1, Done: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !hb.AllDone {
		t.Error("AllDone not reported after every partition finished")
	}
	if !m.AllDone() {
		t.Error("Membership.AllDone() disagrees")
	}
}

// TestCoordClientOverTCP drives the membership protocol through the real
// TCP wire: a shard Acceptor hosting a Membership, a CoordClient
// dialing it, and join/heartbeat/leave round trips — plus the readable
// refusal from a shard that is not the coordinator.
func TestCoordClientOverTCP(t *testing.T) {
	cluster := testCluster(t, 2)
	m, err := NewMembership(MemberConfig{Partitions: 2, ShardAddrs: []string{"x:1", "y:2"}})
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
	join, err := cc.Join(JoinRequest{Label: "tcp-worker", Preferred: []int{0, 1}})
	if err != nil {
		t.Fatalf("Join over TCP: %v", err)
	}
	if len(join.Assignments) != 2 || len(join.ShardAddrs) != 2 {
		t.Fatalf("join reply = %+v", join)
	}
	hb, err := cc.Heartbeat(HeartbeatRequest{WorkerID: join.WorkerID, Progress: []PartitionProgress{
		{Partition: 0, Done: true},
		{Partition: 1, Done: true},
	}})
	if err != nil {
		t.Fatalf("Heartbeat over TCP: %v", err)
	}
	if !hb.AllDone {
		t.Error("AllDone lost over the wire")
	}
	if err := cc.Leave(LeaveRequest{WorkerID: join.WorkerID}); err != nil {
		t.Fatalf("Leave over TCP: %v", err)
	}

	// A plain shard (no coordinator) refuses membership ops by name.
	addr2, stop2 := serve(nil)
	defer stop2()
	cc2, err := DialCoordinator(addr2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cc2.Close()
	if _, err := cc2.Join(JoinRequest{Label: "lost-worker"}); err == nil {
		t.Error("non-coordinator shard accepted a join")
	}
}

// chaosCoordinator serves a two-partition coordinator (with a fleet
// aggregator, so telemetry is acknowledged) behind inj, and dials it with a
// 500 ms request bound.
func chaosCoordinator(t *testing.T, inj *chaos.Injector) *CoordClient {
	t.Helper()
	c := testCluster(t, 1)
	m, err := NewMembership(MemberConfig{Partitions: 2, Telemetry: telemetry.NewFleet(telemetry.FleetConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	acc := &Acceptor{Coordinator: m}
	go acc.Serve(inj.Listen(l), c.Servers[0])
	cc, err := DialCoordinator(l.Addr().String(), 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc
}

// bothDone reports partitions 0 and 1 finished.
var bothDone = []PartitionProgress{{Partition: 0, Done: true}, {Partition: 1, Done: true}}

// TestCoordClientStalledReplyNotReadByNextCall stalls the coordinator's
// reply to the first heartbeat past the client's bound: that call fails,
// and the next one must get its own reply, not the late one.
func TestCoordClientStalledReplyNotReadByNextCall(t *testing.T) {
	// Server writes on the first connection: ack 0, join reply 1,
	// heartbeat reply 2.
	cc := chaosCoordinator(t, chaos.NewInjector(chaos.Rule{
		Conn: 0, Op: chaos.OpWrite, After: 2, Fault: chaos.FaultStall, Stall: 1500 * time.Millisecond,
	}))
	join, err := cc.Join(JoinRequest{Label: "w", Preferred: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Heartbeat(HeartbeatRequest{WorkerID: join.WorkerID}); err == nil {
		t.Fatal("heartbeat with a stalled reply succeeded")
	}
	time.Sleep(time.Second) // a heartbeat interval: the late reply lands meanwhile
	hb, err := cc.Heartbeat(HeartbeatRequest{WorkerID: join.WorkerID, Progress: bothDone})
	if err != nil {
		t.Fatalf("heartbeat after the timeout: %v", err)
	}
	if !hb.AllDone || len(hb.Assignments) != 0 {
		t.Fatalf("heartbeat reporting both partitions done got %+v, want its own AllDone reply", hb)
	}
}

// TestCoordClientTelemetryAckNotReadAsHeartbeat runs the elastic worker's
// heartbeat → telemetry → heartbeat sequence with the telemetry ack
// stalled: the heartbeat after it must never decode that ack as an empty
// assignment list while the worker still owns unfinished partitions.
func TestCoordClientTelemetryAckNotReadAsHeartbeat(t *testing.T) {
	// Server writes: ack 0, join 1, heartbeat 2, telemetry ack 3.
	cc := chaosCoordinator(t, chaos.NewInjector(chaos.Rule{
		Conn: 0, Op: chaos.OpWrite, After: 3, Fault: chaos.FaultStall, Stall: 1500 * time.Millisecond,
	}))
	join, err := cc.Join(JoinRequest{Label: "w", Preferred: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := cc.Heartbeat(HeartbeatRequest{WorkerID: join.WorkerID})
	if err != nil || len(hb.Assignments) != 2 {
		t.Fatalf("first heartbeat: %v, %+v", err, hb)
	}
	rep := telemetry.Report{Role: telemetry.RoleWorker, Label: "w", Seq: 1, Metrics: metrics.NewRegistry().Snapshot()}
	if err := cc.SendTelemetry(rep); err == nil {
		t.Fatal("telemetry with a stalled ack succeeded")
	}
	time.Sleep(time.Second) // a heartbeat interval: the late ack lands meanwhile
	hb, err = cc.Heartbeat(HeartbeatRequest{WorkerID: join.WorkerID})
	if err != nil {
		t.Fatalf("heartbeat after the telemetry timeout: %v", err)
	}
	if len(hb.Assignments) != 2 {
		t.Fatalf("worker owning two unfinished partitions got assignments %+v", hb.Assignments)
	}
}

// TestCoordClientRedialsAfterReset resets the coordinator connection under
// a heartbeat: that call fails, and the same client's next call re-dials
// and succeeds.
func TestCoordClientRedialsAfterReset(t *testing.T) {
	cc := chaosCoordinator(t, chaos.NewInjector(chaos.Rule{
		Conn: 0, Op: chaos.OpWrite, After: 2, Fault: chaos.FaultReset,
	}))
	join, err := cc.Join(JoinRequest{Label: "w", Preferred: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Heartbeat(HeartbeatRequest{WorkerID: join.WorkerID}); err == nil {
		t.Fatal("heartbeat over a reset connection succeeded")
	}
	for i := 0; i < 2; i++ {
		hb, err := cc.Heartbeat(HeartbeatRequest{WorkerID: join.WorkerID})
		if err != nil {
			t.Fatalf("heartbeat %d after the reset: %v", i, err)
		}
		if len(hb.Assignments) != 2 {
			t.Fatalf("heartbeat %d after the reset got %+v", i, hb)
		}
	}
}

// TestMemberBodiesDecodeStrictly holds the membership and telemetry bodies
// to their JSON: a reply and a report with every field set read back equal,
// a body with a field its message lacks or with bytes after the value is
// refused, and a report holding a NaN gauge cannot be encoded at all.
func TestMemberBodiesDecodeStrictly(t *testing.T) {
	join := JoinReply{WorkerID: 3, ShardAddrs: []string{"a:1", "b:2"}, Partitions: 2, HeartbeatEvery: 250 * time.Millisecond,
		Assignments: []Assignment{{Partition: 1, Epoch: 2, Iteration: 7}}}
	b, err := json.Marshal(&join)
	if err != nil {
		t.Fatal(err)
	}
	var gotJoin JoinReply
	if err := decodeBody(b, &gotJoin); err != nil || !reflect.DeepEqual(gotJoin, join) {
		t.Fatalf("join reply %+v read back as %+v, %v", join, gotJoin, err)
	}
	reg := metrics.NewRegistry()
	reg.Counter(metrics.MTrainIterations).Add(1 << 40)
	reg.Gauge(metrics.MTrainLoss).Set(0.1)
	reg.Histogram(metrics.MServeLatencyPredict).Observe(0.003)
	rep := telemetry.Report{Role: telemetry.RoleWorker, Label: "w", Seq: 9, Metrics: reg.Snapshot()}
	if b, err = json.Marshal(&rep); err != nil {
		t.Fatal(err)
	}
	var gotRep telemetry.Report
	if err := decodeBody(b, &gotRep); err != nil || !reflect.DeepEqual(gotRep, rep) {
		t.Fatalf("report %+v read back as %+v, %v", rep, gotRep, err)
	}
	for name, body := range map[string]string{
		"unknown field":  `{"WorkerID":1,"Admin":true}`,
		"trailing value": `{"WorkerID":1}{"WorkerID":2}`,
		"trailing space": `{"WorkerID":1} `,
		"not JSON":       "\x0d\xff\x81\x03\x01\x01",
		"empty":          "",
	} {
		var m HeartbeatRequest
		if err := decodeBody([]byte(body), &m); err == nil {
			t.Errorf("%s: %q decoded as %+v", name, body, m)
		}
	}
	reg.Gauge(metrics.MTrainLoss).Set(math.NaN())
	rep.Metrics = reg.Snapshot()
	if err := (&CoordClient{}).SendTelemetry(rep); err == nil {
		t.Error("a report with a NaN gauge was sent")
	}
}
