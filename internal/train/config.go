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
	"cmp"
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

// Config is one training run as the trainers take it: the run's spec (the
// embedded RunConfig, every knob under its one name) and what core derives
// from the knobs — the split, the model and loss, the partitioner, the
// optimizer and the corruption weights — plus this process's elastic
// membership and sinks. The trainers read the derived values, not
// the names they came from (Model, not ModelName).
type Config struct {
	RunConfig

	// Train holds the training triples. Valid, when non-empty, is scored
	// for MRR every EvalEvery epochs to build convergence curves. Filter
	// enables filtered negative sampling and filtered evaluation.
	Train  *kg.Graph
	Valid  []kg.Triple
	Filter *kg.TripleSet

	// Model and Loss select the scoring function and objective.
	Model model.Model
	Loss  model.Loss
	// Partitioner distributes entities across machines.
	Partitioner partition.Partitioner
	// NewOptimizer supplies the gradient applier used by both the PS shards
	// and the workers' cached copies.
	NewOptimizer func() opt.Optimizer
	// NegativeWeights, when non-nil, draws corrupting entities from this
	// unnormalized distribution instead of uniformly (e.g.
	// sampler.DegreeWeights for deg^0.75 corruption).
	NegativeWeights []float64

	// Elastic, when non-nil, runs this process as one elastic worker of a
	// coordinated cluster (parameter-server systems only).
	Elastic *ElasticConfig
	// Timeline, when non-nil, receives the run's JSONL timeline: a header
	// line, one record per completed epoch, and — from every PS run,
	// elastic included — a deterministic registry snapshot every
	// TimelineEvery global iterations (see metrics.TimelineEmitter).
	Timeline io.Writer
	// Spans, when non-nil, collects per-batch distributed spans: every
	// worker, every PS shard this process hosts and the transport get a
	// tracer from this collector, and every Spans.Every()-th batch per
	// worker is traced end to end (sampling, cache lookup, gradient
	// compute, PS RPCs, wire time, shard apply). nil disables tracing at
	// zero cost (the tracers stay nil).
	Spans *span.Collector

	// candidates and bufferCap, when positive, stand in for evalCandidates
	// and degradedMaxBufferedRows, so a test can shrink them.
	candidates, bufferCap int
	// wrapInProc, when non-nil, wraps the in-process transport of a run
	// that hosts its shards, so a test can inject faults; the wrapper goes
	// behind in-process links on Codec.
	wrapInProc func(ps.Transport) (ps.Transport, error)
}

const (
	// evalCandidates is how many sampled candidates validation ranks each
	// validation triple against.
	evalCandidates = 100
	// degradedMaxBufferedRows caps the degraded push buffer (distinct
	// coalesced gradient rows awaiting replay). Exceeding it fails the run
	// — the explicit bound on how much update mass an outage may defer.
	degradedMaxBufferedRows = 65536
)

// Validate resolves the spec (RunConfig.Resolve) and checks the
// configuration. It creates a private Metrics registry when none is given.
func (c *Config) Validate() error {
	c.Resolve()
	if c.Train == nil || c.Train.NumTriples() == 0 {
		return fmt.Errorf("train: empty graph")
	}
	if c.Model == nil {
		return fmt.Errorf("train: nil model")
	}
	if c.Loss == nil {
		return fmt.Errorf("train: nil loss")
	}
	if c.Partitioner == nil {
		return fmt.Errorf("train: nil partitioner")
	}
	if c.NewOptimizer == nil {
		return fmt.Errorf("train: nil optimizer")
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
	if c.Machines <= 0 {
		return fmt.Errorf("train: Machines %d <= 0", c.Machines)
	}
	if c.WorkersPerMachine <= 0 {
		return fmt.Errorf("train: WorkersPerMachine %d <= 0", c.WorkersPerMachine)
	}
	if _, ok := systemFlags[c.System]; !ok {
		return fmt.Errorf("train: unknown system %q", c.System)
	}
	if cached, _ := c.System.hotTable(); cached {
		if c.CacheCapacity < 0 {
			return fmt.Errorf("train: negative cache capacity %d", c.CacheCapacity)
		}
		if c.CachePrefetchD <= 0 {
			return fmt.Errorf("train: prefetch depth %d <= 0", c.CachePrefetchD)
		}
	}
	if c.CkptEvery <= 0 {
		return fmt.Errorf("train: CkptEvery %d <= 0", c.CkptEvery)
	}
	if c.JoinAddr != "" && len(c.ShardAddrs) > 0 {
		return fmt.Errorf("train: JoinAddr and ShardAddrs are mutually exclusive (the coordinator advertises the fleet)")
	}
	if n := len(c.ShardAddrs); n > 0 && n != c.Machines {
		return fmt.Errorf("train: %d shard addresses for %d machines", n, c.Machines)
	}
	if r := c.Resume; r != nil {
		switch {
		case c.JoinAddr != "":
			return fmt.Errorf("train: Resume is not supported in elastic mode (shard processes hold the state)")
		case len(c.ShardAddrs) > 0:
			return fmt.Errorf("train: Resume is not supported with remote shards")
		case r.ModelName != c.ModelName:
			return fmt.Errorf("train: checkpoint trained with %q, run requests %q", r.ModelName, c.ModelName)
		}
	}
	if e := c.Elastic; e != nil {
		switch {
		case c.System == SystemPBG:
			return fmt.Errorf("train: system %s does not support elastic mode", c.System)
		case e.Coordinator == nil || e.Join == nil:
			return fmt.Errorf("train: elastic run needs a coordinator and its join reply")
		case c.WorkersPerMachine > 1:
			return fmt.Errorf("train: elastic mode supports 1 worker per machine, got %d", c.WorkersPerMachine)
		case e.Join.Partitions != c.Machines:
			return fmt.Errorf("train: coordinator runs %d partitions, this process is configured for %d machines",
				e.Join.Partitions, c.Machines)
		case len(e.Join.ShardAddrs) > 0 && len(e.Join.ShardAddrs) != c.Machines:
			return fmt.Errorf("train: coordinator advertises %d shard addresses for %d machines",
				len(e.Join.ShardAddrs), c.Machines)
		}
	}
	if err := c.CostModel.Validate(); err != nil {
		return err
	}
	if _, err := ps.ResolveProfile(c.Codec); err != nil {
		return err
	}
	if c.TopKRatio < 0 || c.TopKRatio > 1 {
		return fmt.Errorf("train: TopKRatio %v outside (0, 1]", c.TopKRatio)
	}
	if c.DegradedMaxStaleness < 0 {
		return fmt.Errorf("train: DegradedMaxStaleness %d < 0", c.DegradedMaxStaleness)
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	return nil
}

// cacheCapacity is k: CacheCapacity when set, else CacheBudget of the
// entity+relation universe (at least one row), else 5% of it.
func (c *Config) cacheCapacity() int {
	universe := c.Train.NumEntity + c.Train.NumRel
	switch {
	case c.CacheCapacity != 0:
		return c.CacheCapacity
	case c.CacheBudget > 0:
		return max(int(c.CacheBudget*float64(universe)), 1)
	}
	return universe / 20
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
	// Final holds the last validation evaluation (zero when EvalEvery is negative).
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
		NumCandidates: cmp.Or(cfg.candidates, evalCandidates),
		Seed:          cfg.Seed + 1000,
		Parallelism:   cfg.Parallelism,
	}, test)
}
