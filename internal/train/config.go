// Package train implements the distributed KGE training systems the paper
// compares: HET-KG (parameter server + hot-embedding cache, in CPS and DPS
// variants), a DGL-KE-style trainer (parameter server, no cache), and a
// PyTorch-BigGraph-style trainer (entity buckets swapped through a shared
// filesystem, relations as dense parameters). Run trains any of them;
// Config.System picks which.
//
// All of them run on the same substrate — models, samplers, optimizers, the
// sharded PS, the partitioner, and the netsim cost model — so measured
// differences isolate the system mechanism, which is the comparison the
// paper's evaluation makes.
package train

import (
	"fmt"
	"io"
	"time"

	"hetkg/internal/eval"
	"hetkg/internal/kg"
	"hetkg/internal/metrics"
	"hetkg/internal/model"
	"hetkg/internal/netsim"
	"hetkg/internal/opt"
	"hetkg/internal/partition"
	"hetkg/internal/ps"
	"hetkg/internal/span"
	"hetkg/internal/vec"
)

// System names a training system implementation; its value is the name a
// Result reports.
type System string

// The four systems of the paper's evaluation (§VI). PBG swaps entity
// buckets through a shared filesystem (§III-B, pbg.go). DGL-KE pulls and
// pushes every embedding a batch touches through the sharded parameter
// server (§III-B). HET-KG is DGL-KE plus a per-worker hot-embedding table,
// built by prefetch (Algorithm 1) and filter (Algorithm 2) and kept under
// the partial-stale protocol (Algorithms 3/4): once, from a census, in CPS;
// again every D iterations, from a D-iteration lookahead, in DPS.
const (
	SystemPBG    System = "PBG"
	SystemDGLKE  System = "DGL-KE"
	SystemHETKGC System = "HET-KG-C"
	SystemHETKGD System = "HET-KG-D"
)

// Systems lists all systems in the paper's table order.
func Systems() []System {
	return []System{SystemPBG, SystemDGLKE, SystemHETKGC, SystemHETKGD}
}

// systemFlags is each system's flag and plan spelling, the one map between
// the two (MarshalText, UnmarshalText).
var systemFlags = map[System]string{
	SystemPBG:    "pbg",
	SystemDGLKE:  "dglke",
	SystemHETKGC: "hetkg-c",
	SystemHETKGD: "hetkg-d",
}

// MarshalText spells the system as its flag and plan value ("hetkg-d").
func (s System) MarshalText() ([]byte, error) {
	if name, ok := systemFlags[s]; ok {
		return []byte(name), nil
	}
	return nil, fmt.Errorf("train: unknown system %q", string(s))
}

// UnmarshalText parses a flag or plan value: pbg, dglke, hetkg-c or hetkg-d.
func (s *System) UnmarshalText(text []byte) error {
	for sys, name := range systemFlags {
		if name == string(text) {
			*s = sys
			return nil
		}
	}
	return fmt.Errorf("train: unknown system %q (have pbg | dglke | hetkg-c | hetkg-d)", text)
}

// hotTable is what a parameter-server system's workers do with the
// hot-embedding table: whether they carry one at all (HET-KG; DGL-KE is the
// same substrate without it), and whether they rebuild it from a fresh
// D-iteration lookahead every D iterations (DPS) rather than build it once
// (CPS).
func (s System) hotTable() (cached, rebuild bool) {
	return s == SystemHETKGC || s == SystemHETKGD, s == SystemHETKGD
}

// Config parameterizes a training run. Zero values select sensible defaults
// where noted.
type Config struct {
	// System selects the trainer: PBG's bucket trainer, or the parameter-
	// server driver with or without the hot-embedding table.
	System System
	// Elastic, when non-nil, runs this process as one elastic worker of a
	// coordinated cluster (parameter-server systems only).
	Elastic *ElasticConfig

	// Graph holds the training triples.
	Graph *kg.Graph
	// Valid, when non-empty, is scored for MRR after every EvalEvery
	// epochs to build convergence curves.
	Valid []kg.Triple
	// Filter enables filtered negative sampling and filtered evaluation.
	Filter *kg.TripleSet

	// Model and Loss select the scoring function and objective.
	Model model.Model
	Loss  model.Loss
	// Dim is the base embedding dimension d.
	Dim int
	// LR is the AdaGrad learning rate.
	LR float32
	// Epochs is the number of passes over the training triples.
	Epochs int

	// BatchSize (b_p), NegPerPos (b_n) and ChunkSize (b_c) parameterize
	// sampling (§V "Negative Sampling").
	BatchSize, NegPerPos, ChunkSize int

	// NumMachines is the cluster size; each machine hosts one PS shard and
	// WorkersPerMachine workers (default 1).
	NumMachines       int
	WorkersPerMachine int
	// LocalMachines, when non-empty, restricts this process to the
	// workers of the listed machine indices — the multi-process worker
	// deployment, where each trainer process drives one machine's share
	// of the workload against shared (remote) PS shards. Empty = all
	// machines in-process (the default single-process simulation). An
	// elastic run ignores it: the coordinator assigns the machines.
	LocalMachines []int

	// Partitioner distributes entities across machines (default MetisLike).
	Partitioner partition.Partitioner
	// CostModel prices the metered traffic (default the paper's 1 Gbps).
	CostModel netsim.CostModel

	// EvalEvery is the epoch interval for validation MRR (0 disables).
	EvalEvery int
	// EvalCandidates caps ranking candidates during validation (0 = all).
	EvalCandidates int
	// EvalMax caps how many validation triples are scored (0 = all).
	EvalMax int

	// Seed drives every random choice in the run.
	Seed int64

	// Parallelism bounds the cores the deterministic parallel execution
	// engine (internal/par) uses for within-batch gradient computation and
	// validation ranking. 0 means runtime.GOMAXPROCS (all cores); 1 runs
	// serial. Losses and metrics are bit-identical at every setting: batch
	// compute merges fixed shards in order and evaluation derives one RNG
	// per test triple, so parallelism changes wall-clock only.
	Parallelism int

	// Cache configures HET-KG's hot-embedding table; ignored by the
	// baseline trainers.
	Cache CacheConfig

	// InitialEntities and InitialRelations, when non-nil, resume training
	// from existing embedding tables instead of random initialization.
	InitialEntities  *vec.Matrix
	InitialRelations *vec.Matrix

	// NewOptimizer, when non-nil, supplies the gradient applier used by
	// both the PS shards and the workers' cached copies (default:
	// AdaGrad(LR), the paper's optimizer).
	NewOptimizer func() opt.Optimizer

	// NegativeWeights, when non-nil, draws corrupting entities from this
	// unnormalized distribution instead of uniformly (e.g.
	// sampler.DegreeWeights for deg^0.75 corruption).
	NegativeWeights []float64

	// AdversarialTemp enables self-adversarial negative sampling (Sun et
	// al., RotatE): each negative's gradient is weighted by
	// softmax(temp · score) across its positive's negatives, focusing the
	// update on hard negatives. 0 disables (uniform 1/n weighting, the
	// paper's setting).
	AdversarialTemp float32

	// Codec names the negotiated wire-codec profile for worker↔PS links:
	// "fp32" (default), "fp16", "int8", "delta-int8", "topk", or "auto"
	// (picked per link from RTT×bandwidth). See ps.ResolveProfile. The
	// in-process links are built on it here; TCP links negotiate it
	// themselves at dial time, so supply the same name to ps.DialTCPLink.
	Codec string

	// TopKRatio is the fraction of gradient coordinates the "topk" codec's
	// push sparsifier keeps per row (default 0.125, at least one
	// coordinate); the rest accumulate in the worker's error-feedback
	// buffer and are re-sent later.
	TopKRatio float64

	// NewTransport, when non-nil, supplies the worker↔PS transport
	// (default: in-process links on Codec over the cluster's shards).
	// Supplying a ps.DialTCPLink transport runs the whole training loop
	// over real sockets; any other Transport is put behind in-process
	// links on Codec.
	NewTransport func(*ps.Cluster) (ps.Transport, error)

	// Metrics is the registry every subsystem (workers, PS client and
	// shards, caches, traffic meters) publishes into for the run. nil gets
	// a fresh registry in Validate; supply one to share it with an
	// introspection endpoint (internal/obs) or across runs.
	Metrics *metrics.Registry

	// Dataset is an optional label recorded in timeline headers.
	Dataset string

	// Timeline, when non-nil, receives the run's JSONL timeline: a header
	// line, one record per completed epoch, and — from every PS run,
	// elastic included — a deterministic registry snapshot every
	// TimelineEvery global iterations (see metrics.TimelineEmitter).
	Timeline io.Writer

	// TimelineEvery is the iteration interval between timeline records
	// (default metrics.DefaultTimelineEvery).
	TimelineEvery int

	// Spans, when non-nil, collects per-batch distributed spans: every
	// worker, PS shard and the transport get a tracer from this collector,
	// and every Spans.Every()-th batch per worker is traced end to end
	// (sampling, cache lookup, gradient compute, PS RPCs, wire time, shard
	// apply). nil disables tracing at zero cost (the tracers stay nil).
	Spans *span.Collector

	// DegradedMaxStaleness enables the shard-outage degraded mode on
	// cache-backed trainers: while a shard link is down
	// (ps.ErrLinkDown), pulls for rows younger than this many iterations
	// are served from the hot cache and pushes buffer for replay on
	// reconnect. 0 (default) disables — any link-down error is fatal. The
	// bound is the degraded mode's correctness contract: a row used for a
	// gradient is never more than max(Cache.SyncEvery,
	// DegradedMaxStaleness) iterations stale.
	DegradedMaxStaleness int

	// DegradedMaxBufferedRows caps the degraded push buffer (distinct
	// coalesced gradient rows awaiting replay). Exceeding it fails the run
	// — the explicit bound on how much update mass an outage may defer.
	// Default 65536 when degraded mode is on.
	DegradedMaxBufferedRows int
}

// CacheConfig is the hot-embedding table configuration (§IV-B).
type CacheConfig struct {
	// Capacity is k, rows cached per worker.
	Capacity int
	// EntityFraction is the heterogeneity quota (default 0.25).
	EntityFraction float64
	// Heterogeneity toggles the quota (off = HET-KG-N of Table VII).
	Heterogeneity bool
	// SyncEvery is the staleness bound P: cached values refresh from the
	// PS every P iterations (0 = never, unbounded staleness).
	SyncEvery int
	// PrefetchD is D, the lookahead depth in iterations. For DPS the table
	// rebuilds every D iterations; for CPS it controls the census depth of
	// the one-shot build (0 = one full epoch).
	PrefetchD int
}

// Validate checks the configuration and fills defaults in place.
func (c *Config) Validate() error {
	if c.Graph == nil || c.Graph.NumTriples() == 0 {
		return fmt.Errorf("train: empty graph")
	}
	if c.Model == nil {
		return fmt.Errorf("train: nil model")
	}
	if c.Loss == nil {
		return fmt.Errorf("train: nil loss")
	}
	if c.Dim <= 0 {
		return fmt.Errorf("train: Dim %d <= 0", c.Dim)
	}
	if c.LR <= 0 {
		return fmt.Errorf("train: LR %v <= 0", c.LR)
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("train: Epochs %d <= 0", c.Epochs)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("train: BatchSize %d <= 0", c.BatchSize)
	}
	if c.NegPerPos <= 0 {
		return fmt.Errorf("train: NegPerPos %d <= 0", c.NegPerPos)
	}
	if c.NumMachines <= 0 {
		return fmt.Errorf("train: NumMachines %d <= 0", c.NumMachines)
	}
	if c.WorkersPerMachine == 0 {
		c.WorkersPerMachine = 1
	}
	if c.WorkersPerMachine < 0 {
		return fmt.Errorf("train: WorkersPerMachine %d < 0", c.WorkersPerMachine)
	}
	if _, ok := systemFlags[c.System]; !ok {
		return fmt.Errorf("train: unknown system %q", c.System)
	}
	if cached, _ := c.System.hotTable(); cached && c.Cache.Capacity < 0 {
		return fmt.Errorf("train: negative cache capacity %d", c.Cache.Capacity)
	}
	if e := c.Elastic; e != nil {
		switch {
		case c.System == SystemPBG:
			return fmt.Errorf("train: system %s does not support elastic mode", c.System)
		case e.Coordinator == nil || e.Join == nil:
			return fmt.Errorf("train: elastic run needs a coordinator and its join reply")
		case c.WorkersPerMachine > 1:
			return fmt.Errorf("train: elastic mode supports 1 worker per machine, got %d", c.WorkersPerMachine)
		case e.Join.Partitions != c.NumMachines:
			return fmt.Errorf("train: coordinator runs %d partitions, this process is configured for %d machines",
				e.Join.Partitions, c.NumMachines)
		}
		ec := *e // the defaults go on a copy, so the caller's stays as given
		if ec.CkptEvery <= 0 {
			ec.CkptEvery = 16
		}
		if ec.RecoverFrom == "" {
			ec.RecoverFrom = ec.CkptDir
		}
		c.Elastic = &ec
	}
	if c.Partitioner == nil {
		c.Partitioner = &partition.MetisLike{Seed: c.Seed}
	}
	if c.CostModel == (netsim.CostModel{}) {
		c.CostModel = netsim.Default1Gbps()
	}
	if err := c.CostModel.Validate(); err != nil {
		return err
	}
	if c.Cache.EntityFraction == 0 {
		c.Cache.EntityFraction = 0.25
	}
	if c.NewOptimizer == nil {
		lr := c.LR
		c.NewOptimizer = func() opt.Optimizer { return opt.NewAdaGrad(lr, 1e-10) }
	}
	if _, err := ps.ResolveProfile(c.Codec); err != nil {
		return err
	}
	if c.TopKRatio == 0 {
		c.TopKRatio = 0.125
	}
	if c.TopKRatio < 0 || c.TopKRatio > 1 {
		return fmt.Errorf("train: TopKRatio %v outside (0, 1]", c.TopKRatio)
	}
	if c.DegradedMaxStaleness < 0 {
		return fmt.Errorf("train: DegradedMaxStaleness %d < 0", c.DegradedMaxStaleness)
	}
	if c.DegradedMaxStaleness > 0 && c.DegradedMaxBufferedRows == 0 {
		c.DegradedMaxBufferedRows = 65536
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	return nil
}

// EpochStat is one epoch's record in a training run, the raw material of
// the paper's convergence figures (Fig. 5, Fig. 9).
type EpochStat struct {
	Epoch    int
	Loss     float64
	MRR      float64
	Comp     time.Duration
	Comm     time.Duration
	HitRatio float64
	// CumTime is total training time (comp+comm) through this epoch.
	CumTime time.Duration
}

// Total returns the epoch's comp+comm time.
func (e EpochStat) Total() time.Duration { return e.Comp + e.Comm }

// Result is the outcome of a training run.
type Result struct {
	// System names the trainer ("HET-KG-C", "HET-KG-D", "DGL-KE", "PBG").
	System string
	// Epochs records per-epoch statistics (loss, validation MRR, time
	// breakdown, hit ratio).
	Epochs []EpochStat
	// Entities and Relations are the final gathered embedding tables.
	Entities  *vec.Matrix
	Relations *vec.Matrix
	// Final holds the last validation evaluation (zero if EvalEvery = 0).
	Final eval.Result
	// Comp and Comm are the run's critical-path computation and simulated
	// communication time; Total is their sum.
	Comp, Comm time.Duration
	// Traffic is the summed traffic of all workers.
	Traffic netsim.Snapshot
	// HitRatio is the overall cache hit ratio (HET-KG only).
	HitRatio float64
	// CacheAccesses is the total number of cache lookups across workers.
	CacheAccesses int64
	// RefreshRows is the total rows re-pulled by cache builds and
	// staleness refreshes — the overhead side of the Fig. 8(b) trade-off.
	RefreshRows int64
	// Metrics is the run's registry (Config.Metrics, or the one Validate
	// created), holding every named series the run published.
	Metrics *metrics.Registry
}

// LocalServiceRatio is the fraction of embedding reads served without any
// parameter-server traffic: cache hits minus the table-construction pulls
// (Build/rebuild). Under per-row staleness every expiry already counts as a
// miss, so this tracks HitRatio closely; both fall as the staleness bound P
// tightens, reproducing Fig. 8(b)'s rising curve.
func (r *Result) LocalServiceRatio() float64 {
	if r.CacheAccesses == 0 {
		return 0
	}
	v := r.HitRatio - float64(r.RefreshRows)/float64(r.CacheAccesses)
	if v < 0 {
		return 0
	}
	return v
}

// Total returns the simulated end-to-end training time.
func (r *Result) Total() time.Duration { return r.Comp + r.Comm }

// evalNow scores validation MRR with the run's eval settings.
func evalNow(cfg *Config, ents, rels *vec.Matrix) (eval.Result, error) {
	test := cfg.Valid
	if cfg.EvalMax > 0 && len(test) > cfg.EvalMax {
		test = test[:cfg.EvalMax]
	}
	return eval.Evaluate(eval.Config{
		Model:         cfg.Model,
		Entities:      ents,
		Relations:     rels,
		Filter:        cfg.Filter,
		NumCandidates: cfg.EvalCandidates,
		Seed:          cfg.Seed + 1000,
		Parallelism:   cfg.Parallelism,
	}, test)
}
