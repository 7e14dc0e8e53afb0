package ps

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"hetkg/internal/metrics"
	"hetkg/internal/telemetry"
)

// Cluster membership and failure detection (DESIGN.md §11).
//
// One shard process — by convention the first address of the static seed
// list — additionally hosts a Membership: the coordinator. Worker processes
// register with it over the shard wire (ops 'J'oin, 'H'eartbeat, 'L'eave
// ride the same connections and request frames as pulls and pushes, each
// body the JSON encoding of its message inside the frame's payload),
// discover the shard fleet from the join reply, and afterwards heartbeat
// periodically. The coordinator declares a worker dead when its heartbeats
// stop for longer than WorkerTimeout and hands the dead worker's partitions
// to the least-loaded live worker, together with the last progress it heard
// — the reassignment that lets a run survive a worker crash without
// restarting the epoch (the embeddings themselves live in the shards, which
// keep serving throughout).
//
// Failure detection is evaluated lazily, on membership RPCs, not on a
// timer goroutine: every live worker beats every HeartbeatEvery, so in any
// run that still has a survivor the sweep happens at heartbeat cadence, and
// the lazy design makes the detector fully deterministic under a fake
// clock (MemberConfig.Now).

// JoinRequest registers a worker process with the coordinator.
type JoinRequest struct {
	// Label identifies the worker in coordinator logs (host:pid, say).
	Label string
	// Preferred lists the partitions this worker was launched to own
	// (the elastic spelling of hetkg train -machine). Preferred partitions
	// are granted when unowned; an empty list makes the worker a spare
	// that picks up orphaned partitions only.
	Preferred []int
}

// Assignment hands one partition to a worker, with the coordinator's
// last-known progress as the resume point (the worker may resume further
// ahead if it finds a fresher ckpt snapshot).
type Assignment struct {
	// Partition is the partition (machine) index to train.
	Partition int
	// Epoch is the 1-based epoch to resume at.
	Epoch int
	// Iteration is the number of completed iterations within Epoch.
	Iteration int
}

// JoinReply is the coordinator's answer to a JoinRequest: the worker's
// identity, the shard fleet, and the initial partition assignments.
type JoinReply struct {
	// WorkerID is the coordinator-issued identity for heartbeats/leave.
	WorkerID int
	// ShardAddrs is the parameter-server fleet, in machine order — the
	// shard-discovery half of the membership layer (workers need only the
	// coordinator's address to find the whole cluster).
	ShardAddrs []string
	// Partitions is the total partition count (= machines) of the run.
	Partitions int
	// HeartbeatEvery is the heartbeat cadence the coordinator expects.
	HeartbeatEvery time.Duration
	// Assignments are the partitions granted at join time.
	Assignments []Assignment
}

// PartitionProgress reports one partition's training position in a
// heartbeat: the owner's current epoch/iteration, or Done when every
// configured epoch has finished.
type PartitionProgress struct {
	Partition int
	Epoch     int
	Iteration int
	Done      bool
}

// HeartbeatRequest is a worker's periodic liveness report plus the progress
// of every partition it holds (done partitions are re-reported every beat,
// so a lost reply cannot lose a completion).
type HeartbeatRequest struct {
	WorkerID int
	Progress []PartitionProgress
}

// HeartbeatReply carries the worker's authoritative assignment set back.
// A partition present here but absent from the worker's active set was
// reassigned TO it (adopt and resume); one the worker holds but that is
// absent here was reassigned away (drop without checkpointing).
type HeartbeatReply struct {
	Assignments []Assignment
	// AllDone reports that every partition has completed every epoch —
	// the worker should gather, evaluate, and exit.
	AllDone bool
	// Unknown reports that the coordinator no longer knows this worker
	// (its heartbeats stalled past WorkerTimeout and it was expired).
	// The worker must re-Join before training further.
	Unknown bool
}

// LeaveRequest removes a worker gracefully, returning its partitions to
// the pool with exact progress (no timeout wait, no lost iterations).
type LeaveRequest struct {
	WorkerID int
	Progress []PartitionProgress
}

// MemberConfig parameterizes a coordinator's Membership.
type MemberConfig struct {
	// Partitions is the run's partition (machine) count.
	Partitions int
	// ShardAddrs is the static seed list of shard addresses advertised to
	// joining workers, in machine order.
	ShardAddrs []string
	// HeartbeatEvery is the cadence advertised to workers (default 1s).
	HeartbeatEvery time.Duration
	// WorkerTimeout declares a worker dead after this much heartbeat
	// silence (default 3 × HeartbeatEvery).
	WorkerTimeout time.Duration
	// Now supplies the clock (default time.Now); tests inject a fake.
	Now func() time.Time
	// Logf, when non-nil, receives membership events (joins, expiries,
	// reassignments).
	Logf func(format string, args ...any)
	// Telemetry, when non-nil, is the coordinator's fleet aggregator:
	// op 'T' reports (and in-process SendTelemetry calls) are folded into
	// it. Nil coordinators refuse telemetry by name.
	Telemetry *telemetry.Fleet
}

// memberWorker is the coordinator's view of one registered worker.
type memberWorker struct {
	id       int
	label    string
	lastBeat time.Time
}

// memberPart is the coordinator's view of one partition: its owner (-1
// when orphaned), the last progress heard, and whether the owner has
// progressed past the assignment's resume point (started partitions are
// never preempted for balance — only expiry moves them).
type memberPart struct {
	owner   int
	epoch   int
	iter    int
	done    bool
	started bool
}

// memberObs holds the coordinator's registry series (see Instrument).
type memberObs struct {
	workers    *metrics.Gauge
	unassigned *metrics.Gauge
	heartbeats *metrics.Counter
	failures   *metrics.Counter
	reassigns  *metrics.Counter
}

// Membership is the coordinator's cluster state machine. All methods are
// safe for concurrent use (connections are served on separate goroutines).
type Membership struct {
	cfg MemberConfig

	mu      sync.Mutex
	nextID  int
	workers map[int]*memberWorker
	parts   []memberPart
	obs     *memberObs
}

// NewMembership builds a coordinator for a run with cfg.Partitions
// partitions, all initially orphaned at epoch 1, iteration 0.
func NewMembership(cfg MemberConfig) (*Membership, error) {
	if cfg.Partitions < 1 {
		return nil, fmt.Errorf("ps: membership needs >= 1 partition, got %d", cfg.Partitions)
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.WorkerTimeout <= 0 {
		cfg.WorkerTimeout = 3 * cfg.HeartbeatEvery
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m := &Membership{
		cfg:     cfg,
		nextID:  1,
		workers: make(map[int]*memberWorker),
		parts:   make([]memberPart, cfg.Partitions),
	}
	for p := range m.parts {
		m.parts[p] = memberPart{owner: -1, epoch: 1}
	}
	return m, nil
}

// Instrument publishes the coordinator's cluster series into reg:
// cluster.workers / cluster.partitions_unassigned gauges, and counters for
// received heartbeats (cluster.heartbeats), heartbeat-timeout expiries
// (cluster.worker_failures) and partition moves (cluster.reassignments).
// Call before the membership serves traffic.
func (m *Membership) Instrument(reg *metrics.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.obs = &memberObs{
		workers:    reg.Gauge(metrics.MClusterWorkers),
		unassigned: reg.Gauge(metrics.MClusterPartsUnassigned),
		heartbeats: reg.Counter(metrics.MClusterHeartbeats),
		failures:   reg.Counter(metrics.MClusterWorkerFailures),
		reassigns:  reg.Counter(metrics.MClusterReassigns),
	}
}

func (m *Membership) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Join implements worker registration. Preferred partitions are granted
// when unowned; then orphans are spread over the live workers.
func (m *Membership) Join(req JoinRequest) (*JoinReply, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	m.expireLocked(now)
	w := &memberWorker{id: m.nextID, label: req.Label, lastBeat: now}
	m.nextID++
	m.workers[w.id] = w
	for _, p := range req.Preferred {
		if p < 0 || p >= len(m.parts) {
			return nil, fmt.Errorf("ps: preferred partition %d out of range [0,%d)", p, len(m.parts))
		}
		if m.parts[p].owner < 0 && !m.parts[p].done {
			m.assignLocked(p, w.id)
		}
	}
	m.rebalanceLocked()
	m.logf("cluster: worker %d (%s) joined, %d live", w.id, req.Label, len(m.workers))
	m.publishLocked()
	return &JoinReply{
		WorkerID:       w.id,
		ShardAddrs:     append([]string(nil), m.cfg.ShardAddrs...),
		Partitions:     len(m.parts),
		HeartbeatEvery: m.cfg.HeartbeatEvery,
		Assignments:    m.assignmentsLocked(w.id),
	}, nil
}

// Heartbeat implements the periodic liveness + progress report and returns
// the worker's current assignment set (reassignments included).
func (m *Membership) Heartbeat(req HeartbeatRequest) (*HeartbeatReply, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if o := m.obs; o != nil {
		o.heartbeats.Inc()
	}
	now := m.cfg.Now()
	w, ok := m.workers[req.WorkerID]
	if ok {
		w.lastBeat = now
	}
	m.expireLocked(now)
	if !ok || m.workers[req.WorkerID] == nil {
		return &HeartbeatReply{Unknown: true}, nil
	}
	for _, pr := range req.Progress {
		m.recordProgressLocked(req.WorkerID, pr)
	}
	m.rebalanceLocked()
	m.publishLocked()
	return &HeartbeatReply{
		Assignments: m.assignmentsLocked(req.WorkerID),
		AllDone:     m.allDoneLocked(),
	}, nil
}

// Leave implements graceful departure: final progress is recorded and the
// worker's partitions return to the pool immediately.
func (m *Membership) Leave(req LeaveRequest) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.workers[req.WorkerID]
	if !ok {
		return nil // already expired; nothing to release
	}
	for _, pr := range req.Progress {
		m.recordProgressLocked(req.WorkerID, pr)
	}
	m.releaseLocked(w.id)
	delete(m.workers, w.id)
	m.logf("cluster: worker %d (%s) left, %d live", w.id, w.label, len(m.workers))
	m.rebalanceLocked()
	m.publishLocked()
	return nil
}

// AllDone reports whether every partition has completed every epoch.
func (m *Membership) AllDone() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allDoneLocked()
}

// MemberSnapshot is a point-in-time view of the cluster for logs, tests
// and the smoke harness.
type MemberSnapshot struct {
	// Workers is the number of live registered workers.
	Workers int
	// Unassigned counts partitions with no live owner (and work left).
	Unassigned int
	// Done counts partitions that completed every epoch.
	Done int
	// Owner[p] is partition p's worker id (-1 when orphaned).
	Owner []int
	// Epoch[p] / Iteration[p] is the last progress heard for p.
	Epoch     []int
	Iteration []int
}

// Snapshot returns the current membership view.
func (m *Membership) Snapshot() MemberSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := MemberSnapshot{Workers: len(m.workers)}
	for _, p := range m.parts {
		s.Owner = append(s.Owner, p.owner)
		s.Epoch = append(s.Epoch, p.epoch)
		s.Iteration = append(s.Iteration, p.iter)
		if p.done {
			s.Done++
		} else if p.owner < 0 {
			s.Unassigned++
		}
	}
	return s
}

// recordProgressLocked folds one reported partition position into the
// table. Progress only moves forward (a stale report from a preempted
// worker cannot rewind the resume point).
func (m *Membership) recordProgressLocked(worker int, pr PartitionProgress) {
	if pr.Partition < 0 || pr.Partition >= len(m.parts) {
		return
	}
	p := &m.parts[pr.Partition]
	if pr.Done && !p.done {
		p.done = true
		p.owner = -1
		m.logf("cluster: partition %d done (worker %d)", pr.Partition, worker)
		return
	}
	if p.done || p.owner != worker {
		return
	}
	if pr.Epoch > p.epoch || (pr.Epoch == p.epoch && pr.Iteration > p.iter) {
		p.epoch, p.iter = pr.Epoch, pr.Iteration
		p.started = true
	}
}

// expireLocked sweeps workers whose heartbeats stalled past WorkerTimeout,
// orphaning their partitions with the last progress heard.
func (m *Membership) expireLocked(now time.Time) {
	for id, w := range m.workers {
		if now.Sub(w.lastBeat) <= m.cfg.WorkerTimeout {
			continue
		}
		m.releaseLocked(id)
		delete(m.workers, id)
		if o := m.obs; o != nil {
			o.failures.Inc()
		}
		m.logf("cluster: worker %d (%s) expired after %v silence", id, w.label, now.Sub(w.lastBeat))
	}
}

// releaseLocked orphans every partition owned by worker id.
func (m *Membership) releaseLocked(id int) {
	for p := range m.parts {
		if m.parts[p].owner == id {
			m.parts[p].owner = -1
			m.parts[p].started = false
		}
	}
}

// assignLocked hands partition p to worker id.
func (m *Membership) assignLocked(p, id int) {
	m.parts[p].owner = id
	m.parts[p].started = false
}

// rebalanceLocked hands orphaned partitions to the least-loaded live
// workers, then applies one bounded preemption rule: a partition whose
// owner has not yet trained past its resume point may move to a worker
// holding at least two fewer partitions (this spreads work at cold start
// without ever preempting in-flight training).
func (m *Membership) rebalanceLocked() {
	if len(m.workers) == 0 {
		return
	}
	load := make(map[int]int, len(m.workers))
	for id := range m.workers {
		load[id] = 0
	}
	for _, p := range m.parts {
		if p.owner >= 0 && !p.done {
			load[p.owner]++
		}
	}
	least := func() (int, int) {
		best, bestLoad := -1, int(^uint(0)>>1)
		for id, l := range load {
			if l < bestLoad || (l == bestLoad && (best < 0 || id < best)) {
				best, bestLoad = id, l
			}
		}
		return best, bestLoad
	}
	for p := range m.parts {
		if m.parts[p].done || m.parts[p].owner >= 0 {
			continue
		}
		id, _ := least()
		m.assignLocked(p, id)
		load[id]++
		if o := m.obs; o != nil {
			o.reassigns.Inc()
		}
		m.logf("cluster: partition %d -> worker %d (resume epoch %d iter %d)",
			p, id, m.parts[p].epoch, m.parts[p].iter)
	}
	for p := range m.parts {
		pt := &m.parts[p]
		if pt.done || pt.started || pt.owner < 0 {
			continue
		}
		id, l := least()
		if id == pt.owner || load[pt.owner] < l+2 {
			continue
		}
		load[pt.owner]--
		m.assignLocked(p, id)
		load[id]++
		if o := m.obs; o != nil {
			o.reassigns.Inc()
		}
		m.logf("cluster: partition %d rebalanced -> worker %d", p, id)
	}
}

// assignmentsLocked lists worker id's current partitions with resume hints.
func (m *Membership) assignmentsLocked(id int) []Assignment {
	var out []Assignment
	for p, pt := range m.parts {
		if pt.owner == id && !pt.done {
			out = append(out, Assignment{Partition: p, Epoch: pt.epoch, Iteration: pt.iter})
		}
	}
	return out
}

func (m *Membership) allDoneLocked() bool {
	for _, p := range m.parts {
		if !p.done {
			return false
		}
	}
	return true
}

// publishLocked refreshes the coordinator gauges.
func (m *Membership) publishLocked() {
	o := m.obs
	if o == nil {
		return
	}
	o.workers.Set(float64(len(m.workers)))
	unassigned := 0
	for _, p := range m.parts {
		if !p.done && p.owner < 0 {
			unassigned++
		}
	}
	o.unassigned.Set(float64(unassigned))
}

// Coordinator is the membership protocol from the worker's side. It is
// implemented by *Membership (in-process, used by tests and single-process
// elastic runs) and by *CoordClient (over the TCP wire).
type Coordinator interface {
	// Join registers this process and returns identity + shard fleet +
	// initial assignments.
	Join(JoinRequest) (*JoinReply, error)
	// Heartbeat reports liveness and progress, returning the current
	// assignment set.
	Heartbeat(HeartbeatRequest) (*HeartbeatReply, error)
	// Leave releases this worker's partitions gracefully.
	Leave(LeaveRequest) error
	// SendTelemetry ships a registry snapshot to the coordinator's fleet
	// aggregator; a coordinator without one refuses it.
	telemetry.Sender
}

// CoordClient speaks the membership protocol to a coordinator shard over
// one link (see LinkTransport) with retries and the breaker off: a failed
// call surfaces to the caller and poisons the connection, so the next call
// re-dials instead of reading the failed call's late reply.
type CoordClient struct {
	link *LinkTransport
}

// DialCoordinator connects to the coordinator at addr. timeout bounds the
// dial, the handshake, and each request's write and reply read (0 = 5s) —
// the worker-side half of failure detection: a coordinator that stops
// answering within the bound surfaces as an error instead of a hang.
func DialCoordinator(addr string, timeout time.Duration) (*CoordClient, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	// Membership links carry no pushes, so link id 0 (dedup off).
	t, err := newLinkTransport([]string{addr}, fp32Profile,
		LinkConfig{RPCTimeout: timeout, Retries: -1, BreakerThreshold: -1}, false, (*LinkTransport).dialTCP)
	if err != nil {
		return nil, err
	}
	return &CoordClient{link: t}, nil
}

// Close releases the connection.
func (cc *CoordClient) Close() error { return cc.link.Close() }

// call runs one membership or telemetry op on cc's link: req goes out as
// JSON (a report holding a non-finite gauge has none, and fails here), and
// the reply is decoded strictly into a Rep.
func call[Rep, Req any](cc *CoordClient, op byte, req *Req) (*Rep, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("ps: encoding membership body: %w", err)
	}
	if payload, err = cc.link.call(0, &wireRequest{Op: op, Payload: payload}); err != nil {
		return nil, err
	}
	var rep Rep
	return &rep, decodeBody(payload, &rep)
}

// Join implements Coordinator.
func (cc *CoordClient) Join(req JoinRequest) (*JoinReply, error) {
	return call[JoinReply](cc, opJoin, &req)
}

// Heartbeat implements Coordinator.
func (cc *CoordClient) Heartbeat(req HeartbeatRequest) (*HeartbeatReply, error) {
	return call[HeartbeatReply](cc, opHeartbeat, &req)
}

// Leave implements Coordinator.
func (cc *CoordClient) Leave(req LeaveRequest) error {
	_, err := call[struct{}](cc, opLeave, &req)
	return err
}

// Membership wire ops, sharing the pull/push request frame.
const (
	opJoin      = 'J'
	opHeartbeat = 'H'
	opLeave     = 'L'
)

// decodeBody decodes a membership or telemetry body, the JSON the
// coordinator's /metrics and /fleet endpoints serve, strictly: a field the
// message does not have, or any byte after the JSON value, refuses it.
func decodeBody[T any](b []byte, v *T) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("ps: decoding membership body: %w", err)
	}
	if n := dec.InputOffset(); n != int64(len(b)) {
		return fmt.Errorf("ps: %d bytes after the membership body", int64(len(b))-n)
	}
	return nil
}
