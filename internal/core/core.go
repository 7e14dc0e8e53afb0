// Package core ties the substrates together: it turns a high-level run
// specification (dataset, system, model, scale) into a configured training
// run, and hosts the experiment registry that regenerates every table and
// figure of the HET-KG paper (see DESIGN.md §4 for the index).
package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"hetkg/internal/artifact"
	"hetkg/internal/cache"
	"hetkg/internal/ckpt"
	"hetkg/internal/dataset"
	"hetkg/internal/kg"
	"hetkg/internal/metrics"
	"hetkg/internal/model"
	"hetkg/internal/netsim"
	"hetkg/internal/opt"
	"hetkg/internal/partition"
	"hetkg/internal/ps"
	"hetkg/internal/sampler"
	"hetkg/internal/span"
	"hetkg/internal/train"
	"hetkg/internal/vec"
)

// System names a training system implementation.
type System string

// The four systems of the paper's evaluation.
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

// RunConfig is the high-level specification of one training run.
type RunConfig struct {
	// Graph, when non-nil, trains on this user-supplied knowledge graph
	// (e.g. loaded with kg.ReadTSV) instead of a preset.
	Graph *kg.Graph
	// Dataset is a preset name: "fb15k", "wn18", or "freebase86m".
	// Ignored when Graph is set.
	Dataset string
	// Scale selects the synthetic dataset size (tiny/small/paper).
	Scale dataset.Scale
	// System selects the trainer.
	System System
	// ModelName is a model registry name ("transe", "distmult", ...).
	ModelName string
	// LossName is "logistic" (default) or "ranking".
	LossName string
	// OptimizerName is "adagrad" (default, the paper's), "sgd", or "adam".
	OptimizerName string
	// Margin is the ranking-loss margin.
	Margin float32

	// Dim, LR, Epochs, BatchSize, NegPerPos, ChunkSize override the
	// scale-derived defaults when non-zero.
	Dim       int
	LR        float32
	Epochs    int
	BatchSize int
	NegPerPos int
	ChunkSize int

	// Machines is the cluster size (default 4, the paper's testbed).
	Machines int
	// WorkersPerMachine defaults to 1.
	WorkersPerMachine int
	// PartitionerName is "metis" (default) or "random".
	PartitionerName string
	// CostModel defaults to the paper's 1 Gbps network.
	CostModel netsim.CostModel

	// CacheCapacity is the hot-embedding table size (default: 5% of the
	// entity+relation universe). CacheSyncEvery is P (default 8);
	// CachePrefetchD is D (default 16); EntityFraction defaults to 0.25.
	CacheCapacity int
	// CacheBudget sizes the hot table as a fraction of the entity+relation
	// universe (the paper's Fig. 8(a) axis) when CacheCapacity is zero —
	// the sweep-friendly spelling of the same knob (plan key cacheBudget).
	CacheBudget      float64
	CacheSyncEvery   int
	CachePrefetchD   int
	EntityFraction   float64
	NoHeterogeneity  bool // HET-KG-N of Table VII
	DisableCacheSync bool // force unbounded staleness
	// Codec names the negotiated wire-codec profile for worker↔PS links:
	// "fp32" (default), "fp16", "int8", "delta-int8", "topk", or "auto".
	// With ShardAddrs set the profile is negotiated in each connection's
	// TCP handshake; in-process it wraps the simulated transport.
	Codec string
	// TopKRatio is the kept fraction per gradient row for Codec: "topk"
	// (default 0.125).
	TopKRatio float64
	// RPCTimeout bounds each worker↔shard RPC attempt on TCP links
	// (0 = the link layer's default, negative disables deadlines).
	RPCTimeout time.Duration
	// RPCRetries is the per-RPC retry budget after a link failure
	// (0 = the link layer's default, negative disables retries).
	RPCRetries int
	// DegradedMaxStaleness, when positive, lets cache-backed trainers ride
	// out a shard outage in degraded mode: pulls are served from the hot
	// cache up to this many iterations stale and pushes buffer for replay
	// once the link recovers (see train.Config.DegradedMaxStaleness).
	DegradedMaxStaleness int
	// AdversarialTemp enables self-adversarial negative weighting
	// (extension; 0 = the paper's uniform weighting).
	AdversarialTemp float32
	// InverseRelations augments the training split with reciprocal
	// relations (standard KGE preprocessing; doubles the relation table).
	InverseRelations bool
	// DegreeWeightedNegatives corrupts with entities drawn ∝ degree^0.75
	// (word2vec-style hard negatives) instead of uniformly (extension).
	DegreeWeightedNegatives bool
	// Resume, when non-nil, initializes the parameter server from a saved
	// checkpoint's embeddings instead of random values (continue training;
	// not supported together with ShardAddrs — shard processes derive
	// state independently). The checkpoint's model must match ModelName.
	Resume *ckpt.Checkpoint
	// LocalMachines restricts this process to the listed machines' workers
	// (multi-process worker deployment; empty = all machines).
	LocalMachines []int
	// ShardAddrs, when non-empty, connects to remote parameter-server
	// shards (one `hetkg ps` process per machine, in machine order) over
	// TCP instead of hosting the shards in this process. Must have exactly
	// Machines entries.
	ShardAddrs []string
	// JoinAddr, when non-empty, runs this process as an elastic cluster
	// worker: it registers with the coordinator shard at this address,
	// discovers the shard fleet from the join reply, trains whichever
	// partitions the coordinator assigns (heartbeating, snapshotting
	// progress, adopting dead workers' partitions), and returns when every
	// partition has completed every epoch. LocalMachines become the
	// preferred partitions of the registration. Mutually exclusive with
	// ShardAddrs (the fleet comes from the coordinator) and Resume.
	JoinAddr string
	// HeartbeatInterval overrides the coordinator-advertised heartbeat
	// cadence in elastic mode (0 = use the advertised value).
	HeartbeatInterval time.Duration
	// CkptDir, when non-empty, receives per-partition progress snapshots
	// for elastic crash recovery. RecoverFrom is where adopted partitions
	// look for snapshots ("" = CkptDir); CkptEvery is the snapshot
	// iteration interval (0 = 16).
	CkptDir     string
	RecoverFrom string
	CkptEvery   int
	// WorkerLabel identifies this process in coordinator logs (default
	// hostname:pid).
	WorkerLabel string
	// ClusterLogf, when non-nil, receives worker-side cluster events
	// (joins, adoptions, heartbeat trouble) in elastic mode.
	ClusterLogf func(format string, args ...any)

	// EvalEvery/EvalCandidates/EvalMax control validation scoring.
	EvalEvery      int
	EvalCandidates int
	EvalMax        int

	// Parallelism bounds the cores used by the deterministic parallel
	// execution engine for batch compute and evaluation ranking
	// (0 = all cores; 1 = serial; results identical at any setting).
	Parallelism int

	// Metrics, when non-nil, is the registry the run publishes into —
	// share it with an obs.Server to watch the run live. nil lets the
	// trainer create a private one (returned in Result.Metrics).
	Metrics *metrics.Registry
	// TimelinePath, when non-empty, writes the run's JSONL timeline there
	// (parent directories are created). TimelineEvery is the iteration
	// interval between records (default metrics.DefaultTimelineEvery).
	TimelinePath  string
	TimelineEvery int

	// Artifacts, when non-nil, is the content-addressed cache consulted for
	// expensive deterministic intermediates — synthetic dataset generation
	// and partitioner output — so repeated runs of the same configuration
	// skip both (see internal/artifact; hetkg-train/-ps/-data expose it as
	// -artifacts, hetkg apply opens one by default). Never part of the run's
	// semantics: results are bit-identical with or without it.
	Artifacts *artifact.Store

	// SpanPath, when non-empty, enables per-batch span tracing and writes
	// the collected spans there after the run as a hetkg-spans/v1 dump
	// (parent directories are created; `hetkg trace spans` analyzes it,
	// `hetkg trace chrome` converts it for Perfetto). SpanEvery is the
	// per-worker batch sampling interval (default span.DefaultEvery).
	SpanPath  string
	SpanEvery int

	Seed int64
}

// defaults fills scale-appropriate values for everything left zero.
func (rc *RunConfig) defaults() {
	if rc.Dataset == "" && rc.Graph == nil {
		rc.Dataset = "fb15k"
	}
	if rc.ModelName == "" {
		rc.ModelName = "transe"
	}
	if rc.LossName == "" {
		rc.LossName = "logistic"
	}
	if rc.Machines == 0 {
		rc.Machines = 4
	}
	if rc.PartitionerName == "" {
		rc.PartitionerName = "metis"
	}
	if rc.Dim == 0 {
		switch rc.Scale {
		case dataset.Tiny:
			rc.Dim = 16
		case dataset.Paper:
			rc.Dim = 400 // the paper's hyperparameter table
		default:
			rc.Dim = 64
		}
	}
	if rc.LR == 0 {
		rc.LR = 0.1 // paper: ℓ = 0.1
	}
	if rc.Epochs == 0 {
		switch rc.Scale {
		case dataset.Tiny:
			rc.Epochs = 3
		default:
			rc.Epochs = 5
		}
	}
	if rc.BatchSize == 0 {
		switch rc.Scale {
		case dataset.Tiny:
			rc.BatchSize = 32 // paper: b = 32 on FB15k/WN18
		default:
			rc.BatchSize = 128
		}
	}
	if rc.NegPerPos == 0 {
		rc.NegPerPos = 8 // paper: b_n = 8
	}
	if rc.ChunkSize == 0 {
		rc.ChunkSize = 8
	}
	if rc.CostModel == (netsim.CostModel{}) {
		rc.CostModel = netsim.Default1Gbps()
	}
	if rc.EvalEvery == 0 {
		rc.EvalEvery = 1
	}
	if rc.EvalCandidates == 0 {
		rc.EvalCandidates = 100
	}
	if rc.EvalMax == 0 {
		rc.EvalMax = 300
	}
	if rc.CacheSyncEvery == 0 {
		rc.CacheSyncEvery = 8 // the knee of Fig. 8(b)
	}
	if rc.CachePrefetchD == 0 {
		rc.CachePrefetchD = 16
	}
	if rc.EntityFraction == 0 {
		rc.EntityFraction = 0.25 // the optimum of Fig. 8(c)
	}
	if rc.DisableCacheSync {
		rc.CacheSyncEvery = 0
	}
}

// linkConfig assembles the fault-tolerance parameters for TCP shard links.
// The run seed keys the retry-backoff jitter, so a given run's retry
// schedule replays deterministically.
func (rc *RunConfig) linkConfig() ps.LinkConfig {
	return ps.LinkConfig{
		RPCTimeout: rc.RPCTimeout,
		Retries:    rc.RPCRetries,
		Seed:       rc.Seed,
	}
}

// prepared is the state a RunConfig implies before any system-specific
// wiring: everything a trainer (Run) and a shard process (BuildShard) must
// derive identically, because shards receive no state transfer — dataset
// generation, the train/valid/test split, the graph partition and per-key
// embedding initialization are all pure functions of the config's seeds.
type prepared struct {
	// graph is the whole dataset; split divides it, with reciprocal
	// relations already added to split.Train when requested.
	graph *kg.Graph
	split kg.Split
	model model.Model
	// part is the (artifact-cached) partitioner; newOpt builds the
	// optimizer for a shard or a worker's cached copies.
	part   partition.Partitioner
	newOpt func() opt.Optimizer
}

// Split is the train/valid/test split a run with this seed trains and
// validates on — the one derivation, so a tool scoring a checkpoint's test
// triples (`hetkg eval`) can never be handed triples the run trained on.
// Freebase-86m uses 90/5/5 in the paper; the standard benchmarks keep small
// validation/test tails at our scales.
func Split(g *kg.Graph, seed int64) (kg.Split, error) {
	return kg.SplitTriples(g, rand.New(rand.NewSource(seed+17)), 0.05, 0.05)
}

// prepare fills rc's defaults and derives the run's prepared state.
func prepare(rc *RunConfig) (*prepared, error) {
	rc.defaults()
	g := rc.Graph
	if g == nil {
		var ok bool
		g, ok = dataset.ByNameCached(rc.Dataset, rc.Scale, rc.Seed, rc.Artifacts)
		if !ok {
			return nil, fmt.Errorf("core: unknown dataset %q (have %v)", rc.Dataset, dataset.Names())
		}
	}
	sp, err := Split(g, rc.Seed)
	if err != nil {
		return nil, err
	}
	if rc.InverseRelations {
		sp.Train = kg.AddInverses(sp.Train)
	}
	mdl, err := model.New(rc.ModelName)
	if err != nil {
		return nil, err
	}
	part, err := partition.New(rc.PartitionerName, rc.Seed)
	if err != nil {
		return nil, err
	}
	name, lr := rc.OptimizerName, rc.LR
	if name == "" {
		name = "adagrad"
	}
	if _, err := opt.New(name, lr); err != nil {
		return nil, err
	}
	return &prepared{
		graph: g,
		split: sp,
		model: mdl,
		part:  partition.Cached(part, rc.Artifacts),
		newOpt: func() opt.Optimizer {
			o, _ := opt.New(name, lr) // validated above
			return o
		},
	}, nil
}

// Run executes the specified training run and returns its result.
func Run(rc RunConfig) (*train.Result, error) {
	p, err := prepare(&rc)
	if err != nil {
		return nil, err
	}
	g, sp := p.graph, p.split
	loss, err := model.NewLoss(rc.LossName, rc.Margin)
	if err != nil {
		return nil, err
	}
	if rc.CacheCapacity == 0 && rc.CacheBudget > 0 {
		rc.CacheCapacity = int(rc.CacheBudget * float64(g.NumEntity+g.NumRel))
		if rc.CacheCapacity < 1 {
			rc.CacheCapacity = 1
		}
	}
	if rc.CacheCapacity == 0 {
		rc.CacheCapacity = (g.NumEntity + g.NumRel) / 20
	}

	if rc.JoinAddr != "" {
		if len(rc.ShardAddrs) > 0 {
			return nil, fmt.Errorf("core: JoinAddr and ShardAddrs are mutually exclusive (the coordinator advertises the fleet)")
		}
		if rc.Resume != nil {
			return nil, fmt.Errorf("core: Resume is not supported in elastic mode (shard processes hold the state)")
		}
	}
	if rc.Resume != nil {
		if len(rc.ShardAddrs) > 0 {
			return nil, fmt.Errorf("core: Resume is not supported with remote shards")
		}
		if rc.Resume.ModelName != rc.ModelName {
			return nil, fmt.Errorf("core: checkpoint trained with %q, run requests %q",
				rc.Resume.ModelName, rc.ModelName)
		}
	}

	tc := train.Config{
		Graph:                sp.Train,
		Valid:                sp.Valid.Triples,
		Filter:               sp.AllTriples(),
		Model:                p.model,
		Loss:                 loss,
		Dim:                  rc.Dim,
		LR:                   rc.LR,
		Epochs:               rc.Epochs,
		BatchSize:            rc.BatchSize,
		NegPerPos:            rc.NegPerPos,
		ChunkSize:            rc.ChunkSize,
		NumMachines:          rc.Machines,
		WorkersPerMachine:    rc.WorkersPerMachine,
		LocalMachines:        rc.LocalMachines,
		Partitioner:          p.part,
		CostModel:            rc.CostModel,
		EvalEvery:            rc.EvalEvery,
		EvalCandidates:       rc.EvalCandidates,
		EvalMax:              rc.EvalMax,
		Parallelism:          rc.Parallelism,
		Metrics:              rc.Metrics,
		Dataset:              rc.Dataset,
		TimelineEvery:        rc.TimelineEvery,
		Seed:                 rc.Seed,
		NewOptimizer:         p.newOpt,
		Codec:                rc.Codec,
		TopKRatio:            rc.TopKRatio,
		DegradedMaxStaleness: rc.DegradedMaxStaleness,
		NegativeWeights:      negWeights(rc.DegreeWeightedNegatives, sp.Train),
		InitialEntities:      resumeEntities(rc.Resume),
		InitialRelations:     resumeRelations(rc.Resume),
		AdversarialTemp:      rc.AdversarialTemp,
		Cache: train.CacheConfig{
			Capacity:       rc.CacheCapacity,
			EntityFraction: rc.EntityFraction,
			Heterogeneity:  !rc.NoHeterogeneity,
			SyncEvery:      rc.CacheSyncEvery,
			PrefetchD:      rc.CachePrefetchD,
		},
	}
	if len(rc.ShardAddrs) > 0 {
		if len(rc.ShardAddrs) != rc.Machines {
			return nil, fmt.Errorf("core: %d shard addresses for %d machines", len(rc.ShardAddrs), rc.Machines)
		}
		addrs, codec, lcfg := rc.ShardAddrs, rc.Codec, rc.linkConfig()
		tc.NewTransport = func(*ps.Cluster) (ps.Transport, error) {
			return ps.DialTCPLink(addrs, codec, lcfg)
		}
	}
	var timelineFile *os.File
	if rc.TimelinePath != "" {
		if dir := filepath.Dir(rc.TimelinePath); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, fmt.Errorf("core: creating timeline directory: %w", err)
			}
		}
		f, err := os.Create(rc.TimelinePath)
		if err != nil {
			return nil, fmt.Errorf("core: creating timeline: %w", err)
		}
		timelineFile = f
		tc.Timeline = f
	}
	var spans *span.Collector
	if rc.SpanPath != "" {
		spans = span.NewCollector(span.CollectorConfig{Every: rc.SpanEvery})
		tc.Spans = spans
	}
	var res *train.Result
	if rc.JoinAddr != "" {
		res, err = runElastic(rc, tc)
	} else {
		res, err = runSystem(rc.System, tc)
	}
	if timelineFile != nil {
		if cerr := timelineFile.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("core: closing timeline: %w", cerr)
		}
	}
	if spans != nil && err == nil {
		hdr := span.Header{System: res.System, Dataset: rc.Dataset, Every: spans.Every(), Seed: rc.Seed}
		if werr := span.WriteFile(rc.SpanPath, hdr, spans.Drain()); werr != nil {
			return res, fmt.Errorf("core: writing spans: %w", werr)
		}
	}
	return res, err
}

// runSystem dispatches to the trainer selected by system.
func runSystem(system System, tc train.Config) (*train.Result, error) {
	switch system {
	case SystemPBG:
		return train.TrainPBG(tc)
	case SystemDGLKE:
		return train.TrainDGLKE(tc)
	case SystemHETKGC:
		tc.Cache.Strategy = cache.CPS
		return train.TrainHETKG(tc)
	case SystemHETKGD:
		tc.Cache.Strategy = cache.DPS
		return train.TrainHETKG(tc)
	default:
		return nil, fmt.Errorf("core: unknown system %q", system)
	}
}

// Options parameterizes an experiment invocation.
type Options struct {
	// Scale selects workload sizes (default Small; benches use Tiny).
	Scale dataset.Scale
	// Seed drives all randomness (default 42, filled by the registry).
	Seed int64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// TimelineDir, when non-empty, writes one sequenced timeline file per
	// training run under this directory (NNN-dataset-system.jsonl).
	TimelineDir string
	// SpanDir, when non-empty, writes one sequenced span dump per training
	// run under this directory (NNN-dataset-system.spans.jsonl). SpanEvery
	// forwards to RunConfig.
	SpanDir   string
	SpanEvery int
}

// timelineSeq numbers experiment timeline files within a process, so runs
// of one experiment batch sort in execution order.
var timelineSeq atomic.Int64

// run executes rc with the options' observability settings applied: when
// TimelineDir is set and the run does not name its own timeline, it gets a
// sequenced file there. Experiment implementations call this instead of
// Run.
func (o Options) run(rc RunConfig) (*train.Result, error) {
	ds := rc.Dataset
	if ds == "" {
		ds = "custom"
	}
	if o.TimelineDir != "" && rc.TimelinePath == "" {
		name := fmt.Sprintf("%03d-%s-%s.jsonl", timelineSeq.Add(1), ds, rc.System)
		rc.TimelinePath = filepath.Join(o.TimelineDir, name)
	}
	if o.SpanDir != "" && rc.SpanPath == "" {
		name := fmt.Sprintf("%03d-%s-%s.spans.jsonl", spanSeq.Add(1), ds, rc.System)
		rc.SpanPath = filepath.Join(o.SpanDir, name)
		rc.SpanEvery = o.SpanEvery
	}
	return Run(rc)
}

// spanSeq numbers experiment span dumps, like timelineSeq.
var spanSeq atomic.Int64

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

func resumeEntities(c *ckpt.Checkpoint) *vec.Matrix {
	if c == nil {
		return nil
	}
	return c.Entities
}

func resumeRelations(c *ckpt.Checkpoint) *vec.Matrix {
	if c == nil {
		return nil
	}
	return c.Relations
}

// negWeights builds deg^0.75 corruption weights when requested.
func negWeights(enabled bool, g *kg.Graph) []float64 {
	if !enabled {
		return nil
	}
	return sampler.DegreeWeights(g.EntityDegrees())
}
