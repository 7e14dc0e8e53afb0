package train

import (
	"fmt"
	"time"

	"hetkg/internal/cache"
	"hetkg/internal/metrics"
	"hetkg/internal/netsim"
	"hetkg/internal/partition"
	"hetkg/internal/ps"
	"hetkg/internal/span"
)

// TrainDGLKE runs the DGL-KE-style baseline (§III-B): METIS-partitioned
// subgraphs, a co-located parameter server, and per-iteration pull/push of
// every embedding the mini-batch touches. It is HET-KG without the
// hot-embedding table.
func TrainDGLKE(cfg Config) (*Result, error) { return trainPS(cfg, false) }

// TrainHETKG runs the paper's system: the DGL-KE substrate plus a per-worker
// hot-embedding table built by prefetch (Algorithm 1) and filter
// (Algorithm 2), maintained under the partial-stale protocol (Algorithms
// 3/4). cfg.Cache.Strategy selects CPS (table fixed after a one-shot census)
// or DPS (table rebuilt from a D-iteration lookahead every D iterations).
func TrainHETKG(cfg Config) (*Result, error) { return trainPS(cfg, true) }

// trainPS is the one static parameter-server trainer: cached workers carry
// the hot-embedding table (HET-KG), uncached ones are DGL-KE.
func trainPS(cfg Config, cached bool) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cached && cfg.Cache.Capacity < 0 {
		return nil, fmt.Errorf("train: negative cache capacity %d", cfg.Cache.Capacity)
	}
	env, err := setupPS(&cfg)
	if err != nil {
		return nil, err
	}
	workers, err := newWorkers(&cfg, env, cached)
	if err != nil {
		return nil, err
	}
	return runPSTraining(&cfg, env, workers, systemName(&cfg, cached))
}

// systemName names the PS system a configuration trains.
func systemName(cfg *Config, cached bool) string {
	switch {
	case !cached:
		return "DGL-KE"
	case cfg.Cache.Strategy == cache.DPS:
		return "HET-KG-D"
	default:
		return "HET-KG-C"
	}
}

// psEnv bundles the shared PS-training substrate.
type psEnv struct {
	cluster *ps.Cluster
	part    *partition.Result
	// tr is the worker↔PS transport; gathers go through it too, so remote
	// shard deployments (`hetkg ps`) see the trained state.
	tr ps.Transport
}

// runPSTraining drives the static PS trainers with the round-robin
// asynchronous schedule: each epoch every worker processes its share of
// iterations one batch per turn, then an epoch barrier (the full
// synchronization DGL-KE performs every few thousand mini-batches, §V)
// gathers statistics and optionally evaluates.
func runPSTraining(cfg *Config, env *psEnv, workers []*worker, system string) (*Result, error) {
	res := &Result{System: system, Metrics: cfg.Metrics}
	em, err := newTimeline(cfg, system)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	round := 0 // global iterations: one round = one batch turn per worker
	var acc epochAcc
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		// Each worker makes one pass over its own partition per epoch;
		// with unbalanced partitions a light worker simply finishes its
		// epoch early (ASP — nobody waits), rather than re-looping its
		// subgraph, which would inflate both traffic and update counts.
		maxIters := 0
		for _, w := range workers {
			if it := w.smp.IterationsPerEpoch(); it > maxIters {
				maxIters = it
			}
		}
		for it := 0; it < maxIters; it++ {
			for _, w := range workers {
				if it >= w.smp.IterationsPerEpoch() {
					continue
				}
				if err := w.turn(); err != nil {
					return nil, err
				}
			}
			round++
			if em != nil && em.ShouldEmit(round) {
				if err := emitTimeline(em, workers[0].obs, workers, round, epoch, start); err != nil {
					return nil, err
				}
			}
		}
		for _, w := range workers {
			acc.add(epoch, w, cfg.CostModel)
		}
		stat, _ := acc.close(epoch)
		if cfg.EvalEvery > 0 && len(cfg.Valid) > 0 && epoch%cfg.EvalEvery == 0 {
			ents, rels, err := env.cluster.GatherVia(env.tr)
			if err != nil {
				return nil, err
			}
			ev, err := evalNow(cfg, ents, rels)
			if err != nil {
				return nil, err
			}
			stat.MRR = ev.MRR
		}
		if err := emitEpoch(em, round, stat, false); err != nil {
			return nil, err
		}
		res.Epochs = append(res.Epochs, stat)
	}
	return finalize(cfg, env, workers, res)
}

// epochAcc merges workers' per-epoch accounting into one record per epoch.
// The static loop feeds it every worker at the epoch barrier; the elastic
// loop feeds it each partition as that partition crosses the boundary. An
// epoch's simulated duration is the critical path (slowest worker),
// matching a real cluster where machines run in parallel.
type epochAcc struct {
	open map[int]*epochSum
	cum  time.Duration
}

// epochSum is one epoch's running merge: critical-path comp/comm in stat,
// loss summed over n contributing workers, cache accesses and hits.
type epochSum struct {
	stat     EpochStat
	lossSum  float64
	n        int
	acc, hit float64
}

// add folds w's accounting since its previous add — computation time,
// simulated communication time, mean loss, hot-table accesses and hits —
// into epoch's record, and resets it on the worker.
func (a *epochAcc) add(epoch int, w *worker, cm netsim.CostModel) {
	s := a.open[epoch]
	if s == nil {
		if a.open == nil {
			a.open = make(map[int]*epochSum)
		}
		s = &epochSum{stat: EpochStat{Epoch: epoch}}
		a.open[epoch] = s
	}
	snap := w.meter.Snapshot()
	comm := snap.Sub(w.commBase).Time(cm)
	w.commBase = snap
	if w.compTime > s.stat.Comp {
		s.stat.Comp = w.compTime
	}
	if comm > s.stat.Comm {
		s.stat.Comm = comm
	}
	w.compTime = 0
	if w.lossCount > 0 {
		s.lossSum += w.lossSum / float64(w.lossCount)
	}
	w.lossSum, w.lossCount = 0, 0
	s.n++
	if w.hot != nil {
		acc := float64(w.hot.Accesses())
		hit := acc * w.hot.HitRatio()
		s.acc += acc
		s.hit += hit
		w.accTotal += acc
		w.hitTotal += hit
		w.hot.ResetStats()
	}
}

// close finishes epoch's record — mean loss, hit ratio, cumulative time —
// and reports whether any worker contributed to it. Epochs must be closed
// in order (CumTime runs across them).
func (a *epochAcc) close(epoch int) (EpochStat, bool) {
	s := a.open[epoch]
	if s == nil {
		return EpochStat{}, false
	}
	delete(a.open, epoch)
	stat := s.stat
	stat.Loss = s.lossSum / float64(s.n)
	if s.acc > 0 {
		stat.HitRatio = s.hit / s.acc
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

// setupPS partitions the graph and builds the parameter-server cluster and
// the worker↔PS transport for a validated cfg.
func setupPS(cfg *Config) (*psEnv, error) {
	part, err := cfg.Partitioner.Partition(cfg.Graph, cfg.NumMachines)
	if err != nil {
		return nil, err
	}
	cluster, err := ps.NewCluster(ps.ClusterConfig{
		NumMachines:      cfg.NumMachines,
		EntityPart:       part.EntityPart,
		NumRelations:     cfg.Graph.NumRel,
		EntityDim:        cfg.Model.EntityDim(cfg.Dim),
		RelationDim:      cfg.Model.RelationDim(cfg.Dim),
		NewOptimizer:     cfg.NewOptimizer,
		Seed:             cfg.Seed,
		InitialEntities:  cfg.InitialEntities,
		InitialRelations: cfg.InitialRelations,
	})
	if err != nil {
		return nil, err
	}
	for _, srv := range cluster.Servers {
		srv.Instrument(cfg.Metrics)
		if cfg.Spans != nil {
			srv.Trace(cfg.Spans.Tracer(srv.Machine(), span.WorkerShard))
		}
	}
	var tr ps.Transport
	if cfg.NewTransport != nil {
		tr, err = cfg.NewTransport(cluster)
		if err != nil {
			return nil, fmt.Errorf("train: building transport: %w", err)
		}
	} else {
		tr = ps.NewInProc(cluster)
	}
	// A codec puts the shards behind links over in-process sessions, both
	// ends of the negotiated codec running. Links that already negotiated
	// their profile (TCP, at dial time) are left alone — a second link
	// layer would codec the payload twice.
	if _, linked := tr.(*ps.LinkTransport); !linked && cfg.Codec != "" {
		tr, err = ps.NewCodecTransport(tr, cluster, cfg.Codec, cfg.CostModel)
		if err != nil {
			return nil, fmt.Errorf("train: building codec transport: %w", err)
		}
	}
	if inst, ok := tr.(interface{ Instrument(*metrics.Registry) }); ok {
		inst.Instrument(cfg.Metrics)
	}
	if cfg.Spans != nil {
		// Links record codec spans (and, over sockets, serialization/wire
		// spans) on a dedicated shared row.
		if tt, ok := tr.(interface{ Trace(*span.Tracer) }); ok {
			tt.Trace(cfg.Spans.Tracer(span.MachineTransport, span.WorkerTransport))
		}
	}
	return &psEnv{cluster: cluster, part: part, tr: tr}, nil
}
