package train

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"hetkg/internal/metrics"
	"hetkg/internal/netsim"
	"hetkg/internal/partition"
	"hetkg/internal/ps"
	"hetkg/internal/span"
)

// Run trains cfg.System. PBG runs its bucket trainer; every other system
// runs the parameter-server driver, whose workers carry a hot-embedding
// table unless the system is DGL-KE. With cfg.Elastic set the driver runs as
// one elastic worker process (elastic.go); otherwise it trains a fixed
// runner set, one per local (machine, slot).
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.System == SystemPBG {
		return trainPBG(&cfg)
	}
	env, err := setupPS(&cfg)
	if err != nil {
		return nil, err
	}
	defer env.tr.Close()
	build := newStatic
	if cfg.Elastic != nil {
		build = newElastic
	}
	d, err := build(&cfg, env)
	if err != nil {
		return nil, err
	}
	return d.run()
}

// newStatic builds a static run's driver over a validated cfg, with its
// fixed runner set: one runner per local (machine, slot), all at the start
// of epoch 1. A machine with no triples gets no runner (its shard still
// serves pulls); the slots of machines this process does not run still
// count, so worker ids — and with them sampler seeds — do not depend on the
// deployment.
func newStatic(cfg *Config, env *psEnv) (*driver, error) {
	d, err := newDriver(cfg, env)
	if err != nil {
		return nil, err
	}
	id := 0
	for m := range cfg.Machines {
		if len(cfg.LocalMachines) > 0 && !slices.Contains(cfg.LocalMachines, m) {
			id += cfg.WorkersPerMachine
			continue
		}
		if d.b.subs[m].NumTriples() == 0 {
			continue
		}
		for range cfg.WorkersPerMachine {
			if _, err := d.addRunner(m, id); err != nil {
				return nil, err
			}
			id++
		}
	}
	if len(d.runners) == 0 {
		return nil, fmt.Errorf("train: no worker received any triples")
	}
	return d, nil
}

// psEnv bundles the shared PS-training substrate.
type psEnv struct {
	// cluster is the shards' layout, and the shards themselves when this
	// process hosts them.
	cluster *ps.Cluster
	part    *partition.Result
	// tr is the worker↔PS transport, one link per shard; gathers go
	// through it too, so remote shard deployments (`hetkg ps`) see the
	// trained state.
	tr *ps.LinkTransport
}

// partRunner is one runner of the driver: a worker and its position in its
// partition's epochs.
type partRunner struct {
	w    *worker
	ipe  int // iterations per epoch for this partition
	ep   int // current 1-based epoch
	iter int // completed iterations within ep
	done bool
}

// driver is the one PS training loop (DESIGN.md §3). A round gives one batch
// turn to every runnable runner, in worker-id order, and a runner is
// runnable unless it is done or has finished an epoch some other not-done
// runner is still in — the epoch barrier. With every partition local that is
// the per-epoch full synchronization of DGL-KE (§V); a process holding one
// partition never waits.
//
// A static run gives the driver a fixed runner set and no coordinator, so
// the local barrier is the cluster's: the driver closes each epoch there,
// evaluates and records it. An elastic run (Config.Elastic) gives it a
// coordinator, whose heartbeats add and drop runners between turns; its
// epochs stay open until the run ends, because an adopted partition can
// still add to any of them.
type driver struct {
	cfg    *Config
	env    *psEnv
	b      *workerBuilder
	system string

	runners map[int]*partRunner // by worker id; under a coordinator, id = partition
	all     []*worker           // every worker ever built, for finalize accounting
	round   int                 // rounds completed
	epochs  epochAcc
	closed  []EpochStat              // closed epochs, in order
	tl      *metrics.TimelineEmitter // nil = no timeline requested

	// The coordinator side (elastic.go); ec is nil in static runs.
	ec           *ElasticConfig
	workerID     int
	interval     time.Duration
	lastBeat     time.Time
	failures     int // consecutive failed heartbeats
	tracer       *span.Tracer
	beats        int
	recovers     int
	telemetrySeq int64 // fleet telemetry rides the heartbeat (DESIGN.md §12)
	telemetryOff bool
}

// newDriver builds an empty runner set on env for a validated cfg, and
// opens the run's timeline.
func newDriver(cfg *Config, env *psEnv) (*driver, error) {
	system := string(cfg.System)
	if cfg.Elastic != nil {
		system += "/elastic"
	}
	b, err := newWorkerBuilder(cfg, env)
	if err != nil {
		return nil, err
	}
	tl, err := newTimeline(cfg, system)
	if err != nil {
		return nil, err
	}
	return &driver{cfg: cfg, env: env, b: b, system: system, runners: make(map[int]*partRunner), tl: tl, ec: cfg.Elastic}, nil
}

// addRunner builds worker id on machine m — the one build path of static
// runner sets and adoption — and holds it at the start of epoch 1.
func (d *driver) addRunner(m, id int) (*partRunner, error) {
	w, err := d.b.build(m, id)
	if err != nil {
		return nil, err
	}
	d.all = append(d.all, w)
	r := &partRunner{w: w, ipe: w.smp.IterationsPerEpoch(), ep: 1}
	d.runners[id] = r
	return r, nil
}

// run trains until every runner is done — under a coordinator, until the
// coordinator reports the whole cluster done — and assembles the Result. A
// heartbeat that falls due mid-round runs between two turns and the round
// goes on, so the clock never changes which runner trains next.
func (d *driver) run() (*Result, error) {
	start := time.Now()
	d.lastBeat = start
rounds:
	for {
		epoch := d.frontier()
		var ids []int
		for _, id := range d.sortedParts() {
			if r := d.runners[id]; !r.done && r.ep == epoch {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			if d.ec == nil {
				break
			}
			// Nothing runnable: idle until a heartbeat brings reassigned
			// work or the all-done signal, waking often enough to keep the
			// cadence even with long intervals.
			allDone, err := d.beatIfDue()
			if err != nil {
				return nil, err
			}
			if allDone {
				break
			}
			time.Sleep(min(max(d.interval/4, time.Millisecond), 250*time.Millisecond))
			continue
		}
		for _, id := range ids {
			allDone, err := d.beatIfDue()
			if err != nil {
				return nil, err
			}
			if allDone {
				break rounds
			}
			// The heartbeat may have dropped this runner, or adopted one
			// behind the barrier.
			if r := d.runners[id]; r != nil && !r.done && r.ep == d.frontier() {
				if err := d.turn(id, r); err != nil {
					return nil, err
				}
			}
		}
		d.round++
		if d.tl != nil && d.tl.ShouldEmit(d.round) {
			if err := emitTimeline(d.tl, d.b.tobs, d.runningLoss(), d.round, epoch, start); err != nil {
				return nil, err
			}
		}
		if d.ec == nil && d.frontier() > epoch {
			if err := d.closeEpoch(epoch); err != nil {
				return nil, err
			}
		}
	}
	if d.ec != nil {
		// Graceful exit: release partitions with exact final progress.
		if err := d.ec.Coordinator.Leave(ps.LeaveRequest{WorkerID: d.workerID, Progress: d.progressAll()}); err != nil {
			d.logf("cluster: leave failed (harmless after all-done): %v", err)
		}
	}
	for ep := 1; ep <= d.cfg.Epochs; ep++ {
		if err := d.closeEpoch(ep); err != nil { // the epochs a coordinator kept open
			return nil, err
		}
	}
	return finalize(d.cfg, d.env, d.all, &Result{System: d.system, Metrics: d.cfg.Metrics, Epochs: d.closed})
}

// frontier is the lowest epoch a not-done runner is still in (past the last
// epoch once every runner is done): the epoch of the next round's turns.
func (d *driver) frontier() int {
	f := d.cfg.Epochs + 1
	for _, r := range d.runners {
		if !r.done {
			f = min(f, r.ep)
		}
	}
	return f
}

// turn runs one batch turn for runner id and advances its position:
// crossing an epoch boundary hands the worker's accounting to the epoch and
// the last one marks the runner done; under a coordinator the snapshot
// cadence and every boundary persist the position.
func (d *driver) turn(id int, r *partRunner) error {
	if err := r.w.turn(); err != nil {
		return fmt.Errorf("train: partition %d: %w", r.w.machine, err)
	}
	r.iter++
	crossed := r.iter == r.ipe
	if crossed {
		d.epochs.add(r.ep, r.w, d.cfg.CostModel)
		r.ep++
		r.iter = 0
		if r.ep > d.cfg.Epochs {
			r.done = true
			d.logf("cluster: partition %d done (%d epochs)", id, d.cfg.Epochs)
		}
	}
	if d.ec != nil && (crossed || r.iter%d.cfg.CkptEvery == 0) {
		d.writeSnapshot(id, r)
	}
	return nil
}

// closeEpoch records epoch if any worker contributed to it. Without a
// coordinator it closes at the barrier, once every worker has finished it,
// so this is also where EvalEvery evaluates.
func (d *driver) closeEpoch(epoch int) error {
	st, ok := d.epochs.close(epoch)
	if !ok {
		return nil
	}
	cfg := d.cfg
	if d.ec == nil && cfg.EvalEvery > 0 && len(cfg.Valid) > 0 && epoch%cfg.EvalEvery == 0 {
		ents, rels, err := d.env.cluster.GatherVia(d.env.tr)
		if err != nil {
			return err
		}
		ev, err := evalNow(cfg, ents, rels)
		if err != nil {
			return err
		}
		st.MRR = ev.MRR
	}
	if err := emitEpoch(d.tl, d.round, st, false); err != nil {
		return err
	}
	d.closed = append(d.closed, st)
	return nil
}

// sortedParts lists the held runner ids in order, so turn scheduling and
// progress reports are deterministic.
func (d *driver) sortedParts() []int {
	ids := make([]int, 0, len(d.runners))
	for id := range d.runners {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// runningLoss is the mean pair loss across the held workers' running epoch
// averages — the same aggregation epochAcc reports per epoch, read
// mid-epoch.
func (d *driver) runningLoss() float64 {
	var sum float64
	n := 0
	for _, id := range d.sortedParts() {
		if w := d.runners[id].w; w != nil && w.lossCount > 0 {
			sum += w.lossSum / float64(w.lossCount)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// epochAcc merges workers' per-epoch accounting into one record per epoch.
// A worker hands over its share as it crosses the epoch boundary, and the
// shares merge in worker-id order when the epoch closes, so the record does
// not depend on which worker finished first. An epoch's simulated duration
// is the critical path (slowest worker), matching a real cluster where
// machines run in parallel.
type epochAcc struct {
	open map[int][]epochShare
	cum  time.Duration
}

// epochShare is one worker's accounting for one epoch: computation and
// simulated communication time, mean pair loss (0 when it scored no pair),
// hot-table accesses and hits.
type epochShare struct {
	id         int
	comp, comm time.Duration
	loss       float64
	acc, hit   float64
}

// add takes w's accounting since its previous add as its share of epoch,
// and resets it on the worker.
func (a *epochAcc) add(epoch int, w *worker, cm netsim.CostModel) {
	snap := w.meter.Snapshot()
	sh := epochShare{id: w.id, comp: w.compTime, comm: snap.Sub(w.commBase).Time(cm)}
	w.commBase = snap
	w.compTime = 0
	if w.lossCount > 0 {
		sh.loss = w.lossSum / float64(w.lossCount)
	}
	w.lossSum, w.lossCount = 0, 0
	if w.hot != nil {
		sh.acc = float64(w.hot.Accesses())
		sh.hit = sh.acc * w.hot.HitRatio()
		w.accTotal += sh.acc
		w.hitTotal += sh.hit
		w.hot.ResetStats()
	}
	if a.open == nil {
		a.open = make(map[int][]epochShare)
	}
	a.open[epoch] = append(a.open[epoch], sh)
}

// close finishes epoch's record — mean loss, hit ratio, cumulative time —
// and reports whether any worker contributed to it. Epochs must be closed
// in order (CumTime runs across them).
func (a *epochAcc) close(epoch int) (EpochStat, bool) {
	shares, ok := a.open[epoch]
	if !ok {
		return EpochStat{}, false
	}
	delete(a.open, epoch)
	slices.SortStableFunc(shares, func(x, y epochShare) int { return cmp.Compare(x.id, y.id) })
	stat := EpochStat{Epoch: epoch}
	var lossSum, acc, hit float64
	for _, sh := range shares {
		stat.Comp = max(stat.Comp, sh.comp)
		stat.Comm = max(stat.Comm, sh.comm)
		lossSum += sh.loss
		acc += sh.acc
		hit += sh.hit
	}
	stat.Loss = lossSum / float64(len(shares))
	if acc > 0 {
		stat.HitRatio = hit / acc
	}
	a.cum += stat.Total()
	stat.CumTime = a.cum
	return stat, true
}

// finalize gathers embeddings, runs the final evaluation, and aggregates
// run-level statistics over workers — every worker that trained for this
// process. With none (an elastic spare that never received a partition) the
// result still carries the cluster's final state and evaluation.
func finalize(cfg *Config, env *psEnv, workers []*worker, res *Result) (*Result, error) {
	// A run that trained through a shard outage may still hold buffered
	// degraded pushes; they must land before the gather or the final
	// embeddings silently miss update mass.
	for _, w := range workers {
		if err := w.drainDegraded(); err != nil {
			return nil, err
		}
	}
	ents, rels, err := env.cluster.GatherVia(env.tr)
	if err != nil {
		return nil, err
	}
	res.Entities, res.Relations = ents, rels
	if cfg.EvalEvery > 0 && len(cfg.Valid) > 0 {
		ev, err := evalNow(cfg, ents, rels)
		if err != nil {
			return nil, err
		}
		res.Final = ev
	}
	var hitTotal, accTotal float64
	for _, w := range workers {
		s := w.meter.Snapshot()
		res.Traffic.LocalMsgs += s.LocalMsgs
		res.Traffic.LocalBytes += s.LocalBytes
		res.Traffic.RemoteMsgs += s.RemoteMsgs
		res.Traffic.RemoteBytes += s.RemoteBytes
		accTotal += w.accTotal
		hitTotal += w.hitTotal
		if w.hot != nil {
			res.RefreshRows += w.hot.RefreshedRows()
		}
	}
	if accTotal > 0 {
		res.HitRatio = hitTotal / accTotal
	}
	res.CacheAccesses = int64(accTotal)
	for _, e := range res.Epochs {
		res.Comp += e.Comp
		res.Comm += e.Comm
	}
	return res, nil
}

// setupPS partitions the graph and reaches the run's parameter-server
// shards for a validated cfg. A run that names its shards (ShardAddrs, or
// the fleet a joined worker's coordinator advertised) dials them and holds
// only their layout; one that names none hosts every shard in process,
// behind in-process links on cfg.Codec. The caller closes the transport.
func setupPS(cfg *Config) (*psEnv, error) {
	part, err := cfg.Partitioner.Partition(cfg.Train, cfg.Machines)
	if err != nil {
		return nil, err
	}
	addrs := cfg.ShardAddrs
	if cfg.Elastic != nil {
		addrs = cfg.Elastic.Join.ShardAddrs
	}
	var cluster *ps.Cluster
	var tr *ps.LinkTransport
	if len(addrs) > 0 {
		if cluster, err = ps.NewLayout(cfg.clusterConfig(part)); err != nil {
			return nil, err
		}
		// The TCP handshake negotiates the codec. The run seed keys the
		// retry-backoff jitter, so a run's retry schedule replays
		// deterministically.
		lcfg := ps.LinkConfig{RPCTimeout: cfg.RPCTimeout, Retries: cfg.RPCRetries, Seed: cfg.Seed}
		if tr, err = ps.DialTCPLink(addrs, cfg.Codec, lcfg); err != nil {
			return nil, fmt.Errorf("train: building transport: %w", err)
		}
	} else {
		if cluster, err = ps.NewCluster(cfg.clusterConfig(part)); err != nil {
			return nil, err
		}
		for _, srv := range cluster.Servers {
			srv.Instrument(cfg.Metrics)
			if cfg.Spans != nil {
				srv.Trace(cfg.Spans.Tracer(srv.Machine(), span.WorkerShard))
			}
		}
		var inner ps.Transport // nil: the links sit on the shards directly
		if cfg.wrapInProc != nil {
			if inner, err = cfg.wrapInProc(ps.NewInProc(cluster)); err != nil {
				return nil, fmt.Errorf("train: building transport: %w", err)
			}
		}
		if tr, err = ps.NewCodecTransport(inner, cluster, cfg.Codec, cfg.CostModel); err != nil {
			return nil, fmt.Errorf("train: building codec transport: %w", err)
		}
	}
	tr.Instrument(cfg.Metrics)
	if cfg.Spans != nil {
		// Links record codec spans (and, over sockets, serialization/wire
		// spans) on a dedicated shared row.
		tr.Trace(cfg.Spans.Tracer(span.MachineTransport, span.WorkerTransport))
	}
	return &psEnv{cluster: cluster, part: part, tr: tr}, nil
}

// clusterConfig is the parameter-server deployment cfg describes over part:
// the one derivation, so a run's in-process shards, the layout of its
// remote ones and every `hetkg ps` shard (BuildShard) agree on placement,
// widths and rows.
func (cfg *Config) clusterConfig(part *partition.Result) ps.ClusterConfig {
	cc := ps.ClusterConfig{
		NumMachines:  cfg.Machines,
		EntityPart:   part.EntityPart,
		NumRelations: cfg.Train.NumRel,
		EntityDim:    cfg.Model.EntityDim(cfg.Dim),
		RelationDim:  cfg.Model.RelationDim(cfg.Dim),
		NewOptimizer: cfg.NewOptimizer,
		Seed:         cfg.Seed,
	}
	if r := cfg.Resume; r != nil {
		cc.InitialEntities, cc.InitialRelations = r.Entities, r.Relations
	}
	return cc
}

// BuildShard builds and initialises machine's shard of the run cfg
// describes — what a `hetkg ps` process hosts. It partitions cfg.Train as
// Run does and reads only the fields the shard's rows derive from: Train,
// Partitioner, Machines, Model, Dim, NewOptimizer, Seed and Resume.
func BuildShard(cfg Config, machine int) (*ps.Server, error) {
	cfg.Resolve()
	part, err := cfg.Partitioner.Partition(cfg.Train, cfg.Machines)
	if err != nil {
		return nil, err
	}
	return ps.NewClusterShard(cfg.clusterConfig(part), machine)
}
