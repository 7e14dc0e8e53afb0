package train

import (
	"fmt"
	"os"
	"sort"
	"time"

	"hetkg/internal/ckpt"
	"hetkg/internal/metrics"
	"hetkg/internal/ps"
	"hetkg/internal/span"
	"hetkg/internal/telemetry"
)

// The elastic driver (DESIGN.md §11) is the multi-process deployment of
// the PS trainers: each hetkg train process registers with a coordinator,
// receives partition assignments, and trains them under asynchronous
// heartbeats. Partitions move between processes — at cold start to spread
// load, and after a crash to resume a dead worker's range from its last
// progress snapshot. Epochs are per-partition (ASP: nobody waits), so a
// worker joining or leaving never restarts anyone's epoch; the run is done
// when every partition has finished every epoch, and each surviving
// process then gathers the shards' state and evaluates.

// ElasticConfig parameterizes one elastic worker process.
type ElasticConfig struct {
	// Coordinator is the joined membership handle: a *ps.CoordClient over
	// TCP, or a *ps.Membership directly for single-process runs and tests.
	Coordinator ps.Coordinator
	// Join, when non-nil, is the already-performed registration (the caller
	// needed the reply's shard list to build the transport). Left nil,
	// TrainElastic registers itself.
	Join *ps.JoinReply
	// Label identifies this process in coordinator logs.
	Label string
	// Preferred lists partitions this process was launched to own (empty =
	// spare worker; ignored when Join is set).
	Preferred []int
	// HeartbeatEvery overrides the coordinator-advertised cadence (0 = use
	// the JoinReply's).
	HeartbeatEvery time.Duration
	// CkptDir, when non-empty, receives per-partition progress snapshots
	// (ckpt.WriteProgressFile) every CkptEvery iterations.
	CkptDir string
	// RecoverFrom is the directory adopted partitions read snapshots from
	// ("" = CkptDir). A missing snapshot resumes from the coordinator's
	// hint; a corrupt one additionally counts cluster.ckpt_corrupt.
	RecoverFrom string
	// CkptEvery is the iteration interval between snapshots (default 16).
	CkptEvery int
	// NoCache runs the DGL-KE substrate (no hot-embedding table) instead
	// of HET-KG.
	NoCache bool
	// Logf, when non-nil, receives worker-side cluster events.
	Logf func(format string, args ...any)
}

// partRunner is one locally-owned partition's training state.
type partRunner struct {
	w    *worker
	ipe  int // iterations per epoch for this partition
	ep   int // current 1-based epoch
	iter int // completed iterations within ep
	done bool
}

// progress reports the runner's position as a wire message.
func (r *partRunner) progress(part int) ps.PartitionProgress {
	return ps.PartitionProgress{Partition: part, Epoch: r.ep, Iteration: r.iter, Done: r.done}
}

// elasticObs holds the worker-side cluster counters.
type elasticObs struct {
	ckptWrites  *metrics.Counter
	ckptResumes *metrics.Counter
	ckptCorrupt *metrics.Counter
}

// elastic is one elastic worker process's driver state.
type elastic struct {
	cfg *Config
	ec  *ElasticConfig
	env *psEnv
	b   *workerBuilder

	workerID int
	interval time.Duration
	runners  map[int]*partRunner
	all      []*worker // every worker ever built, for finalize accounting

	obs      *elasticObs
	tracer   *span.Tracer
	beats    int
	recovers int

	// Fleet telemetry piggybacked on the heartbeat cadence (DESIGN.md §12):
	// every successful beat also ships the full registry snapshot to the
	// coordinator's aggregator, so the /fleet view tracks this process at
	// heartbeat resolution with no extra timer.
	telemetrySeq int64
	telemetryOff bool

	// epochs merges per-epoch accounting across local partitions, each
	// folded in as it crosses the epoch boundary.
	epochs epochAcc
	// timeline records the epochs finish closes (nil = none requested).
	timeline *metrics.TimelineEmitter
}

// TrainElastic runs one elastic worker process until the whole cluster's
// partitions complete (or a fatal error). The system trained is HET-KG
// with cfg.Cache.Strategy (or DGL-KE with ec.NoCache); per-epoch
// evaluation is disabled — partitions cross epoch boundaries at different
// times, so only the final barrier evaluates.
func TrainElastic(cfg Config, ec ElasticConfig) (*Result, error) {
	e, err := newElastic(cfg, ec)
	if err != nil {
		return nil, err
	}
	return e.run()
}

// newElastic validates the configuration, builds the PS substrate, joins
// the cluster (unless ec.Join already did) and adopts the initial
// assignments.
func newElastic(cfg Config, ec ElasticConfig) (*elastic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ec.Coordinator == nil {
		return nil, fmt.Errorf("train: elastic run needs a coordinator")
	}
	if cfg.WorkersPerMachine > 1 {
		return nil, fmt.Errorf("train: elastic mode supports 1 worker per machine, got %d", cfg.WorkersPerMachine)
	}
	if ec.CkptEvery <= 0 {
		ec.CkptEvery = 16
	}
	if ec.RecoverFrom == "" {
		ec.RecoverFrom = ec.CkptDir
	}
	cfg.LocalMachines = nil // assignment comes from the coordinator

	env, err := setupPS(&cfg)
	if err != nil {
		return nil, err
	}
	b, err := newWorkerBuilder(&cfg, env, !ec.NoCache)
	if err != nil {
		return nil, err
	}
	e := &elastic{
		cfg:     &cfg,
		ec:      &ec,
		env:     env,
		b:       b,
		runners: make(map[int]*partRunner),
		obs: &elasticObs{
			ckptWrites:  cfg.Metrics.Counter(metrics.MClusterCkptWrites),
			ckptResumes: cfg.Metrics.Counter(metrics.MClusterCkptResumes),
			ckptCorrupt: cfg.Metrics.Counter(metrics.MClusterCkptCorrupt),
		},
	}
	if cfg.Spans != nil {
		e.tracer = cfg.Spans.Tracer(span.MachineCluster, span.WorkerCluster)
	}
	if e.timeline, err = newTimeline(&cfg, e.system()); err != nil {
		return nil, err
	}

	join := ec.Join
	if join == nil {
		join, err = ec.Coordinator.Join(ps.JoinRequest{Label: ec.Label, Preferred: ec.Preferred})
		if err != nil {
			return nil, fmt.Errorf("train: joining cluster: %w", err)
		}
	}
	e.workerID = join.WorkerID
	e.interval = ec.HeartbeatEvery
	if e.interval <= 0 {
		e.interval = join.HeartbeatEvery
	}
	if e.interval <= 0 {
		e.interval = time.Second
	}
	if join.Partitions != cfg.NumMachines {
		return nil, fmt.Errorf("train: coordinator runs %d partitions, this process is configured for %d machines",
			join.Partitions, cfg.NumMachines)
	}
	if err := e.reconcile(join.Assignments); err != nil {
		return nil, err
	}
	return e, nil
}

// logf forwards worker-side cluster events.
func (e *elastic) logf(format string, args ...any) {
	if e.ec.Logf != nil {
		e.ec.Logf(format, args...)
	}
}

// run is the driver loop: one turn per active partition per round, a
// synchronous heartbeat whenever the cadence elapses, and an idle sleep
// when this process owns nothing runnable.
func (e *elastic) run() (*Result, error) {
	lastBeat := time.Now()
	failures := 0
	for {
		if time.Since(lastBeat) >= e.interval {
			allDone, err := e.heartbeat()
			if err != nil {
				failures++
				e.logf("cluster: heartbeat failed (%d consecutive): %v", failures, err)
				if failures >= 3 {
					return nil, fmt.Errorf("train: lost the coordinator (%d heartbeats failed): %w", failures, err)
				}
			} else {
				failures = 0
				if allDone {
					break
				}
			}
			lastBeat = time.Now()
		}
		progressed := false
		for _, part := range e.sortedParts() {
			r := e.runners[part]
			if r.done || r.w == nil {
				continue
			}
			if err := e.turn(part, r); err != nil {
				return nil, err
			}
			progressed = true
			if time.Since(lastBeat) >= e.interval {
				break // don't let a long round starve failure detection
			}
		}
		if !progressed {
			// Nothing runnable: idle until the next heartbeat can bring
			// reassigned work (or the all-done signal).
			time.Sleep(sleepQuantum(e.interval))
		}
	}
	// Graceful exit: release partitions with exact final progress.
	if err := e.ec.Coordinator.Leave(ps.LeaveRequest{WorkerID: e.workerID, Progress: e.progressAll()}); err != nil {
		e.logf("cluster: leave failed (harmless after all-done): %v", err)
	}
	return e.finish()
}

// turn runs one batch turn for partition part and advances its position:
// epoch boundaries record stats, the snapshot cadence persists progress,
// and the final epoch's completion marks the partition done.
func (e *elastic) turn(part int, r *partRunner) error {
	if err := r.w.turn(); err != nil {
		return fmt.Errorf("train: partition %d: %w", part, err)
	}
	r.iter++
	snapshot := r.iter%e.ec.CkptEvery == 0
	if r.iter >= r.ipe {
		e.epochs.add(r.ep, r.w, e.cfg.CostModel)
		r.ep++
		r.iter = 0
		if r.ep > e.cfg.Epochs {
			r.done = true
			e.logf("cluster: partition %d done (%d epochs)", part, e.cfg.Epochs)
		}
		snapshot = true
	}
	if snapshot {
		e.writeSnapshot(part, r)
	}
	return nil
}

// heartbeat sends one progress report and applies the reply: adoption and
// drop of partitions, re-join when expired, the all-done signal.
func (e *elastic) heartbeat() (allDone bool, err error) {
	sp := e.tracer.RootNamed(e.beats, span.NClusterHeartbeat)
	e.beats++
	defer sp.End()
	reply, err := e.ec.Coordinator.Heartbeat(ps.HeartbeatRequest{WorkerID: e.workerID, Progress: e.progressAll()})
	if err != nil {
		return false, err
	}
	if reply.Unknown {
		// The coordinator expired us (a long stall on our side). Re-join,
		// preferring the partitions we still hold — if nobody adopted them
		// meanwhile, we get them back without losing local state.
		join, err := e.ec.Coordinator.Join(ps.JoinRequest{Label: e.ec.Label, Preferred: e.sortedParts()})
		if err != nil {
			return false, fmt.Errorf("re-joining after expiry: %w", err)
		}
		e.logf("cluster: expired by coordinator, re-joined as worker %d", join.WorkerID)
		e.workerID = join.WorkerID
		return false, e.reconcile(join.Assignments)
	}
	e.shipTelemetry()
	if reply.AllDone {
		return true, nil
	}
	return false, e.reconcile(reply.Assignments)
}

// shipTelemetry sends one labeled registry snapshot to the coordinator's
// fleet aggregator — best effort, and disabled for the rest of the run
// after the first refusal (a coordinator without an aggregator refuses by
// name; telemetry must never interfere with training).
func (e *elastic) shipTelemetry() {
	if e.telemetryOff {
		return
	}
	sender, ok := e.ec.Coordinator.(telemetry.Sender)
	if !ok {
		e.telemetryOff = true
		return
	}
	e.telemetrySeq++
	err := sender.SendTelemetry(telemetry.Report{
		Role:    telemetry.RoleWorker,
		Label:   e.telemetryLabel(),
		Seq:     e.telemetrySeq,
		Metrics: e.cfg.Metrics.Snapshot(),
	})
	if err != nil {
		e.telemetryOff = true
		e.logf("cluster: telemetry disabled: %v", err)
	}
}

// telemetryLabel is this process's fleet identity: the configured label,
// or the coordinator-issued worker id as a fallback.
func (e *elastic) telemetryLabel() string {
	if e.ec.Label != "" {
		return e.ec.Label
	}
	return fmt.Sprintf("worker-%d", e.workerID)
}

// reconcile makes the local runner set match the coordinator's assignment
// list: absent assignments are adopted (resuming from snapshot or hint),
// local partitions no longer assigned are dropped.
func (e *elastic) reconcile(assignments []ps.Assignment) error {
	assigned := make(map[int]bool, len(assignments))
	for _, a := range assignments {
		assigned[a.Partition] = true
		if _, ok := e.runners[a.Partition]; !ok {
			if err := e.adopt(a); err != nil {
				return err
			}
		}
	}
	for part := range e.runners {
		if !assigned[part] && !e.runners[part].done {
			// Reassigned away (cold-start balancing). Drop without a
			// snapshot — the new owner resumes from the coordinator's hint.
			delete(e.runners, part)
			e.logf("cluster: partition %d reassigned away", part)
		}
	}
	return nil
}

// adopt builds partition a.Partition's worker and fast-forwards it to the
// resume point: the furthest of the coordinator's hint and a valid local
// progress snapshot. The deterministic sampler makes the fast-forward
// exact — worker id equals partition, so the adopted stream is the same
// one the dead owner was consuming.
func (e *elastic) adopt(a ps.Assignment) error {
	sp := e.tracer.RootNamed(e.recovers, span.NClusterRecover)
	e.recovers++
	defer sp.End()

	part := a.Partition
	if part < 0 || part >= e.cfg.NumMachines {
		return fmt.Errorf("train: assigned partition %d out of range [0,%d)", part, e.cfg.NumMachines)
	}
	if e.b.subs[part].NumTriples() == 0 {
		// An empty partition has nothing to train; report it done.
		e.runners[part] = &partRunner{ep: e.cfg.Epochs, done: true}
		return nil
	}
	ep, iter := a.Epoch, a.Iteration
	if ep < 1 {
		ep = 1
	}
	if snap := e.readSnapshot(part); snap != nil {
		if snap.Done {
			e.runners[part] = &partRunner{ep: e.cfg.Epochs, done: true}
			return nil
		}
		if snap.Epoch > ep || (snap.Epoch == ep && snap.Iteration > iter) {
			ep, iter = snap.Epoch, snap.Iteration
		}
	}
	w, err := e.b.build(part, part) // worker id = partition: seeds must match any prior owner
	if err != nil {
		return err
	}
	e.all = append(e.all, w)
	r := &partRunner{w: w, ipe: w.smp.IterationsPerEpoch(), ep: ep, iter: iter}
	if r.ipe == 0 {
		r.done = true
		e.runners[part] = r
		return nil
	}
	if r.ep > e.cfg.Epochs {
		r.done = true
	}
	// Fast-forward the sampler past every batch the partition already
	// trained on; w.iteration follows so cache staleness bookkeeping and
	// span trace IDs continue from the same position.
	skip := (r.ep-1)*r.ipe + r.iter
	for i := 0; i < skip; i++ {
		w.smp.Next()
	}
	w.iteration = skip
	if skip > 0 {
		e.obs.ckptResumes.Inc()
		e.logf("cluster: adopted partition %d at epoch %d iter %d (skipped %d batches)", part, r.ep, r.iter, skip)
	} else {
		e.logf("cluster: adopted partition %d fresh", part)
	}
	e.runners[part] = r
	return nil
}

// readSnapshot loads partition part's progress snapshot, distinguishing
// missing (fresh start, nil) from corrupt (counted, nil) from foreign-run
// provenance (treated as corrupt).
func (e *elastic) readSnapshot(part int) *ckpt.Progress {
	if e.ec.RecoverFrom == "" {
		return nil
	}
	snap, err := ckpt.ReadProgressFile(e.ec.RecoverFrom, part)
	if err != nil {
		if !os.IsNotExist(err) {
			e.obs.ckptCorrupt.Inc()
			e.logf("cluster: snapshot for partition %d unusable, resuming from hint: %v", part, err)
		}
		return nil
	}
	if snap.Seed != e.cfg.Seed || snap.Dataset != e.cfg.Dataset {
		e.obs.ckptCorrupt.Inc()
		e.logf("cluster: snapshot for partition %d is from another run (seed %d dataset %q), ignoring",
			part, snap.Seed, snap.Dataset)
		return nil
	}
	return snap
}

// writeSnapshot persists partition part's position (best effort — a failed
// write degrades recovery granularity, not correctness).
func (e *elastic) writeSnapshot(part int, r *partRunner) {
	if e.ec.CkptDir == "" {
		return
	}
	err := ckpt.WriteProgressFile(e.ec.CkptDir, &ckpt.Progress{
		Partition: part,
		Epoch:     min(r.ep, e.cfg.Epochs),
		Iteration: r.iter,
		Done:      r.done,
		Dataset:   e.cfg.Dataset,
		Seed:      e.cfg.Seed,
	})
	if err != nil {
		e.logf("cluster: snapshot write for partition %d failed: %v", part, err)
		return
	}
	e.obs.ckptWrites.Inc()
}

// progressAll reports every local partition's position (done partitions
// re-report every beat until the coordinator drops them from the
// assignment set — idempotent against lost replies).
func (e *elastic) progressAll() []ps.PartitionProgress {
	var out []ps.PartitionProgress
	for _, part := range e.sortedParts() {
		out = append(out, e.runners[part].progress(part))
	}
	return out
}

// sortedParts lists locally-held partitions in index order, so turn
// scheduling and progress reports are deterministic.
func (e *elastic) sortedParts() []int {
	parts := make([]int, 0, len(e.runners))
	for p := range e.runners {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	return parts
}

// finish assembles the Result: locally-observed epoch stats (an epoch no
// local partition crossed has none), the gathered embedding state, and the
// final evaluation. Per-epoch MRR stays 0: per-epoch eval needs a barrier
// elastic mode doesn't have.
func (e *elastic) finish() (*Result, error) {
	res := &Result{System: e.system(), Metrics: e.cfg.Metrics}
	for ep := 1; ep <= e.cfg.Epochs; ep++ {
		if st, ok := e.epochs.close(ep); ok {
			if err := emitEpoch(e.timeline, 0, st, false); err != nil {
				return nil, err
			}
			res.Epochs = append(res.Epochs, st)
		}
	}
	return finalize(e.cfg, e.env, e.all, res)
}

// system names what this process trains, as results and timelines report it.
func (e *elastic) system() string { return systemName(e.cfg, !e.ec.NoCache) + "/elastic" }

// sleepQuantum bounds the idle sleep so heartbeats stay responsive even
// with long intervals.
func sleepQuantum(interval time.Duration) time.Duration {
	q := interval / 4
	if q < time.Millisecond {
		q = time.Millisecond
	}
	if q > 250*time.Millisecond {
		q = 250 * time.Millisecond
	}
	return q
}
