package train

import (
	"fmt"
	"os"
	"time"

	"hetkg/internal/ckpt"
	"hetkg/internal/metrics"
	"hetkg/internal/ps"
	"hetkg/internal/span"
	"hetkg/internal/telemetry"
)

// An elastic run (DESIGN.md §11) is the multi-process deployment of the PS
// trainers: the driver of pstrain.go with a coordinator. Each hetkg train
// process registers with the coordinator, receives partition assignments,
// and trains them under heartbeats that run between turns. Partitions move
// between processes — at cold start to spread load, and after a crash to
// resume a dead worker's range from its last progress snapshot. A worker
// joining or leaving never restarts anyone's epoch, and a process waits at
// the epoch barrier only for partitions it holds itself. The run is done
// when every partition has finished every epoch; each surviving process
// then gathers the shards' state and evaluates.

// ElasticConfig is one elastic worker process's membership (Config.Elastic);
// its snapshot directories, cadence and log sink are the spec's (CkptDir,
// RecoverFrom, CkptEvery, ClusterLogf).
type ElasticConfig struct {
	// Coordinator is the joined membership handle: a *ps.CoordClient over
	// TCP, or a *ps.Membership directly for single-process runs and tests.
	Coordinator ps.Coordinator
	// Join is this process's registration with Coordinator, performed by
	// the caller; the trainer dials the shard fleet its reply names.
	Join *ps.JoinReply
	// Label identifies this process in coordinator logs.
	Label string
}

// resumable reports whether epoch ep, iteration iter is a position inside
// the run for r: an epoch in [1, epochs] and an iteration below r's
// iterations per epoch.
func (r *partRunner) resumable(ep, iter, epochs int) bool {
	return ep >= 1 && ep <= epochs && iter >= 0 && iter < r.ipe
}

// newElastic builds an elastic worker's driver over a validated cfg and
// adopts the partitions its join reply assigns. The run trains until the
// whole cluster's partitions complete (or a fatal error); per-epoch
// evaluation is off — a local barrier is not the cluster's, so only the
// final state is evaluated.
func newElastic(cfg *Config, env *psEnv) (*driver, error) {
	d, err := newDriver(cfg, env)
	if err != nil {
		return nil, err
	}
	if cfg.Spans != nil {
		d.tracer = cfg.Spans.Tracer(span.MachineCluster, span.WorkerCluster)
	}
	join := d.ec.Join
	d.workerID = join.WorkerID
	d.interval = join.HeartbeatEvery
	if d.interval <= 0 {
		d.interval = time.Second
	}
	if err := d.reconcile(join.Assignments); err != nil {
		return nil, err
	}
	return d, nil
}

// logf forwards worker-side cluster events.
func (d *driver) logf(format string, args ...any) {
	if d.ec != nil && d.cfg.ClusterLogf != nil {
		d.cfg.ClusterLogf(format, args...)
	}
}

// beatIfDue heartbeats when the cadence has elapsed — never without a
// coordinator — and reports the coordinator's all-done signal. A failed
// beat is retried at the next one; three in a row end the run.
func (d *driver) beatIfDue() (allDone bool, err error) {
	if d.ec == nil || time.Since(d.lastBeat) < d.interval {
		return false, nil
	}
	allDone, err = d.heartbeat()
	d.lastBeat = time.Now()
	if err != nil {
		d.failures++
		d.logf("cluster: heartbeat failed (%d consecutive): %v", d.failures, err)
		if d.failures >= 3 {
			return false, fmt.Errorf("train: lost the coordinator (%d heartbeats failed): %w", d.failures, err)
		}
		return false, nil
	}
	d.failures = 0
	return allDone, nil
}

// heartbeat sends one progress report and applies the reply: adoption and
// drop of partitions, re-join when expired, the all-done signal.
func (d *driver) heartbeat() (allDone bool, err error) {
	sp := d.tracer.RootNamed(d.beats, span.NClusterHeartbeat)
	d.beats++
	defer sp.End()
	reply, err := d.ec.Coordinator.Heartbeat(ps.HeartbeatRequest{WorkerID: d.workerID, Progress: d.progressAll()})
	if err != nil {
		return false, err
	}
	if reply.Unknown {
		// The coordinator expired us (a long stall on our side). Re-join,
		// preferring the partitions we still hold — if nobody adopted them
		// meanwhile, we get them back without losing local state.
		join, err := d.ec.Coordinator.Join(ps.JoinRequest{Label: d.ec.Label, Preferred: d.sortedParts()})
		if err != nil {
			return false, fmt.Errorf("re-joining after expiry: %w", err)
		}
		d.logf("cluster: expired by coordinator, re-joined as worker %d", join.WorkerID)
		d.workerID = join.WorkerID
		return false, d.reconcile(join.Assignments)
	}
	d.shipTelemetry()
	if reply.AllDone {
		return true, nil
	}
	return false, d.reconcile(reply.Assignments)
}

// shipTelemetry sends one labeled registry snapshot to the coordinator's
// fleet aggregator — best effort, and disabled for the rest of the run
// after the first refusal (a coordinator without an aggregator refuses by
// name; telemetry must never interfere with training).
func (d *driver) shipTelemetry() {
	if d.telemetryOff {
		return
	}
	label := d.ec.Label // this process's fleet identity
	if label == "" {
		label = fmt.Sprintf("worker-%d", d.workerID)
	}
	d.telemetrySeq++
	err := d.ec.Coordinator.SendTelemetry(telemetry.Report{
		Role:    telemetry.RoleWorker,
		Label:   label,
		Seq:     d.telemetrySeq,
		Metrics: d.cfg.Metrics.Snapshot(),
	})
	if err != nil {
		d.telemetryOff = true
		d.logf("cluster: telemetry disabled: %v", err)
	}
}

// reconcile makes the local runner set match the coordinator's assignment
// list: absent assignments are adopted (resuming from snapshot or hint),
// local partitions no longer assigned are dropped.
func (d *driver) reconcile(assignments []ps.Assignment) error {
	assigned := make(map[int]bool, len(assignments))
	for _, a := range assignments {
		assigned[a.Partition] = true
		if _, ok := d.runners[a.Partition]; !ok {
			if err := d.adopt(a); err != nil {
				return err
			}
		}
	}
	for part := range d.runners {
		if !assigned[part] && !d.runners[part].done {
			// Reassigned away (cold-start balancing). Drop without a
			// snapshot — the new owner resumes from the coordinator's hint.
			delete(d.runners, part)
			d.logf("cluster: partition %d reassigned away", part)
		}
	}
	return nil
}

// adopt builds partition a.Partition's runner and fast-forwards it to the
// resume point: the furthest of the coordinator's hint and a valid local
// progress snapshot. Both are checked against the run before a batch is
// skipped — a snapshot outside it counts as corrupt and is ignored, a hint
// outside it fails the adoption — so no position, however it was reported,
// can make the fast-forward run away. The deterministic sampler makes the
// fast-forward exact — worker id equals partition, so the adopted stream is
// the same one the dead owner was consuming.
func (d *driver) adopt(a ps.Assignment) error {
	sp := d.tracer.RootNamed(d.recovers, span.NClusterRecover)
	d.recovers++
	defer sp.End()

	part, epochs := a.Partition, d.cfg.Epochs
	if part < 0 || part >= d.cfg.Machines {
		return fmt.Errorf("train: assigned partition %d out of range [0,%d)", part, d.cfg.Machines)
	}
	done := &partRunner{ep: epochs, done: true}
	if d.b.subs[part].NumTriples() == 0 {
		// An empty partition has nothing to train; report it done.
		d.runners[part] = done
		return nil
	}
	snap := d.readSnapshot(part)
	if snap != nil && snap.Done {
		d.runners[part] = done
		return nil
	}
	r, err := d.addRunner(part, part) // worker id = partition: seeds must match any prior owner
	if err != nil {
		return err
	}
	if !r.resumable(a.Epoch, a.Iteration, epochs) {
		return fmt.Errorf("train: partition %d: coordinator resume point epoch %d iter %d is outside the run (%d epochs of %d iterations)",
			part, a.Epoch, a.Iteration, epochs, r.ipe)
	}
	r.ep, r.iter = a.Epoch, a.Iteration
	if snap != nil && !r.resumable(snap.Epoch, snap.Iteration, epochs) {
		d.cfg.Metrics.Counter(metrics.MClusterCkptCorrupt).Inc()
		d.logf("cluster: snapshot for partition %d resumes outside the run (epoch %d iter %d), resuming from hint",
			part, snap.Epoch, snap.Iteration)
	} else if snap != nil && (snap.Epoch > r.ep || (snap.Epoch == r.ep && snap.Iteration > r.iter)) {
		r.ep, r.iter = snap.Epoch, snap.Iteration
	}
	// Fast-forward the sampler past every batch the partition already
	// trained on; w.iteration follows so cache staleness bookkeeping and
	// span trace IDs continue from the same position.
	skip := (r.ep-1)*r.ipe + r.iter
	for range skip {
		r.w.smp.Next()
	}
	r.w.iteration = skip
	if skip > 0 {
		d.cfg.Metrics.Counter(metrics.MClusterCkptResumes).Inc()
		d.logf("cluster: adopted partition %d at epoch %d iter %d (skipped %d batches)", part, r.ep, r.iter, skip)
	} else {
		d.logf("cluster: adopted partition %d fresh", part)
	}
	return nil
}

// readSnapshot loads partition part's progress snapshot, distinguishing
// missing (fresh start, nil) from corrupt (counted, nil) from foreign-run
// provenance (treated as corrupt).
func (d *driver) readSnapshot(part int) *ckpt.Progress {
	if d.cfg.RecoverFrom == "" {
		return nil
	}
	snap, err := ckpt.ReadProgressFile(d.cfg.RecoverFrom, part)
	if err != nil {
		if !os.IsNotExist(err) {
			d.cfg.Metrics.Counter(metrics.MClusterCkptCorrupt).Inc()
			d.logf("cluster: snapshot for partition %d unusable, resuming from hint: %v", part, err)
		}
		return nil
	}
	if snap.Seed != d.cfg.Seed || snap.Dataset != d.cfg.Dataset {
		d.cfg.Metrics.Counter(metrics.MClusterCkptCorrupt).Inc()
		d.logf("cluster: snapshot for partition %d is from another run (seed %d dataset %q), ignoring",
			part, snap.Seed, snap.Dataset)
		return nil
	}
	return snap
}

// writeSnapshot persists partition part's position (best effort — a failed
// write degrades recovery granularity, not correctness).
func (d *driver) writeSnapshot(part int, r *partRunner) {
	if d.cfg.CkptDir == "" {
		return
	}
	err := ckpt.WriteProgressFile(d.cfg.CkptDir, &ckpt.Progress{
		Partition: part,
		Epoch:     min(r.ep, d.cfg.Epochs),
		Iteration: r.iter,
		Done:      r.done,
		Dataset:   d.cfg.Dataset,
		Seed:      d.cfg.Seed,
	})
	if err != nil {
		d.logf("cluster: snapshot write for partition %d failed: %v", part, err)
		return
	}
	d.cfg.Metrics.Counter(metrics.MClusterCkptWrites).Inc()
}

// progressAll reports every local partition's position (done partitions
// re-report every beat until the coordinator drops them from the
// assignment set — idempotent against lost replies).
func (d *driver) progressAll() []ps.PartitionProgress {
	var out []ps.PartitionProgress
	for _, part := range d.sortedParts() {
		r := d.runners[part]
		out = append(out, ps.PartitionProgress{Partition: part, Epoch: r.ep, Iteration: r.iter, Done: r.done})
	}
	return out
}
