// Package core ties the substrates together: it turns a high-level run
// specification (dataset, system, model, scale) into a configured training
// run (Run), or into the one shard a `hetkg ps` process hosts (BuildShard).
// Sweeps of runs — plan files and the paper's experiments — are
// internal/plan's.
package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"hetkg/internal/artifact"
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

// System names a training system implementation (train.System).
type System = train.System

// The four systems of the paper's evaluation.
const (
	SystemPBG    = train.SystemPBG
	SystemDGLKE  = train.SystemDGLKE
	SystemHETKGC = train.SystemHETKGC
	SystemHETKGD = train.SystemHETKGD
)

// Systems lists all systems in the paper's table order.
func Systems() []System { return train.Systems() }

// RunConfig is the one description of a training run. Its plan-tagged
// fields are the run's declarative knobs: each tag is the knob's plan-file
// key and, through internal/plan, its `hetkg train` flag and its line in the
// canonical config hash. A knob left zero means the default table's value
// (Normalize), and the ones that table leaves zero resolve from the scale
// when the run starts. The untagged fields are the process's: a graph of its
// own, shard addresses, checkpoints, sinks.
type RunConfig struct {
	// Graph, when non-nil, trains on this user-supplied knowledge graph
	// (e.g. loaded with kg.ReadTSV) instead of a preset.
	Graph *kg.Graph
	// Dataset is a preset name: "fb15k", "wn18", or "freebase86m".
	// Ignored when Graph is set, except as the run's label.
	Dataset string `plan:"dataset"`
	// Scale selects the synthetic dataset size (tiny/small/paper).
	Scale dataset.Scale `plan:"scale"`
	// System selects the trainer.
	System System `plan:"system"`
	// ModelName is a model registry name ("transe", "distmult", ...).
	ModelName string `plan:"model"`
	// LossName is "logistic" (default) or "ranking".
	LossName string `plan:"loss"`
	// OptimizerName is "adagrad" (default, the paper's), "sgd", or "adam".
	OptimizerName string `plan:"optimizer"`
	// Margin is the ranking-loss margin (default 1).
	Margin float64 `plan:"margin"`

	// Dim, Epochs and BatchSize override the scale-derived defaults when
	// non-zero; LR, NegPerPos and ChunkSize default to the paper's 0.1, 8
	// and 8.
	Dim       int     `plan:"dim"`
	LR        float64 `plan:"lr"`
	Epochs    int     `plan:"epochs"`
	BatchSize int     `plan:"batch"`
	NegPerPos int     `plan:"negs"`
	ChunkSize int     `plan:"chunk"`

	// Machines is the cluster size (default 4, the paper's testbed).
	Machines int `plan:"machines"`
	// WorkersPerMachine defaults to 1.
	WorkersPerMachine int `plan:"workers"`
	// PartitionerName is "metis" (default), "ldg" or "random".
	PartitionerName string `plan:"partitioner"`
	// CostModel defaults to the paper's 1 Gbps network.
	CostModel netsim.CostModel

	// CacheCapacity is the hot-embedding table size (default: 5% of the
	// entity+relation universe). CacheSyncEvery is P (default 8; negative
	// means unbounded staleness: cached rows are never refreshed);
	// CachePrefetchD is D (default 16); EntityFraction defaults to 0.25.
	CacheCapacity int `plan:"cache"`
	// CacheBudget sizes the hot table as a fraction of the entity+relation
	// universe (the paper's Fig. 8(a) axis) when CacheCapacity is zero —
	// the sweep-friendly spelling of the same knob.
	CacheBudget     float64 `plan:"cacheBudget"`
	CacheSyncEvery  int     `plan:"staleness"`
	CachePrefetchD  int     `plan:"prefetch"`
	EntityFraction  float64 `plan:"entityRatio"`
	NoHeterogeneity bool    `plan:"noHeterogeneity"` // HET-KG-N of Table VII
	// Codec names the negotiated wire-codec profile for worker↔PS links:
	// "fp32" (default), "fp16", "int8", "delta-int8", "topk", or "auto".
	// With ShardAddrs set the profile is negotiated in each connection's
	// TCP handshake; in-process it wraps the simulated transport.
	Codec string `plan:"codec"`
	// TopKRatio is the kept fraction per gradient row for Codec: "topk"
	// (default 0.125).
	TopKRatio float64 `plan:"topkRatio"`
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
	AdversarialTemp float64 `plan:"adversarial"`
	// DegreeWeightedNegatives corrupts with entities drawn ∝ degree^0.75
	// (word2vec-style hard negatives) instead of uniformly (extension).
	DegreeWeightedNegatives bool `plan:"degreeNegatives"`
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
	// CkptDir, when non-empty, receives per-partition progress snapshots
	// for elastic crash recovery. RecoverFrom is where adopted partitions
	// look for snapshots ("" = CkptDir); CkptEvery is the snapshot
	// iteration interval (0 = 16).
	CkptDir     string
	RecoverFrom string
	CkptEvery   int
	// ClusterLogf, when non-nil, receives worker-side cluster events
	// (joins, adoptions, heartbeat trouble) in elastic mode.
	ClusterLogf func(format string, args ...any)

	// EvalEvery/EvalMax control validation scoring; it ranks against
	// evalCandidates sampled candidates.
	EvalEvery int `plan:"evalEvery"`
	EvalMax   int `plan:"evalMax"`

	// Parallelism bounds the cores used by the deterministic parallel
	// execution engine for batch compute and evaluation ranking
	// (0 = all cores; 1 = serial; results identical at any setting).
	Parallelism int `plan:"parallelism"`

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

	Seed int64 `plan:"seed"`
}

// defaultRun is the one default table: what a knob left zero means, and so
// what `hetkg train` trains with no flags. Dim, epochs, batch size and the
// cache and evaluation knobs are not in it; they resolve later from the
// scale and the graph (resolve, Run), and hash as zero.
var defaultRun = RunConfig{
	Dataset:           "fb15k",
	Scale:             dataset.Small, // the zero Scale
	System:            SystemHETKGD,
	ModelName:         "transe",
	LossName:          "logistic",
	OptimizerName:     "adagrad",
	Margin:            1,
	LR:                0.1, // paper: ℓ = 0.1
	NegPerPos:         8,   // paper: b_n = 8
	ChunkSize:         8,
	Machines:          4,
	WorkersPerMachine: 1,
	PartitionerName:   "metis",
	CacheSyncEvery:    8, // the knee of Fig. 8(b)
	CachePrefetchD:    16,
	EntityFraction:    0.25, // the optimum of Fig. 8(c)
	Seed:              42,
}

// evalCandidates is how many sampled candidates validation ranks each
// test triple against.
const evalCandidates = 100

// Normalize fills every zero field the default table sets, so configurations
// that differ only in spelling out a default are equal. A run that brings its
// own Graph keeps its own dataset label, empty or not.
func (rc *RunConfig) Normalize() {
	label := rc.Dataset
	v, d := reflect.ValueOf(rc).Elem(), reflect.ValueOf(defaultRun)
	for i := range v.NumField() {
		if v.Field(i).IsZero() {
			v.Field(i).Set(d.Field(i))
		}
	}
	if rc.Graph != nil {
		rc.Dataset = label
	}
}

// resolve fills everything the run leaves zero: the default table, then the
// knobs that derive from the scale and the settings no plan key carries.
func (rc *RunConfig) resolve() {
	rc.Normalize()
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
	if rc.CostModel == (netsim.CostModel{}) {
		rc.CostModel = netsim.Default1Gbps()
	}
	if rc.EvalEvery == 0 {
		rc.EvalEvery = 1
	}
	if rc.EvalMax == 0 {
		rc.EvalMax = 300
	}
	if rc.CacheSyncEvery < 0 {
		rc.CacheSyncEvery = 0 // the cache's spelling of unbounded
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
	// graph is the whole dataset; split divides it.
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

// prepare resolves rc and derives the run's prepared state.
func prepare(rc *RunConfig) (*prepared, error) {
	rc.resolve()
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
	mdl, err := model.New(rc.ModelName)
	if err != nil {
		return nil, err
	}
	part, err := partition.New(rc.PartitionerName, rc.Seed)
	if err != nil {
		return nil, err
	}
	name, lr := rc.OptimizerName, float32(rc.LR)
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
	loss, err := model.NewLoss(rc.LossName, float32(rc.Margin))
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
		System:               rc.System,
		Graph:                sp.Train,
		Valid:                sp.Valid.Triples,
		Filter:               sp.AllTriples(),
		Model:                p.model,
		Loss:                 loss,
		Dim:                  rc.Dim,
		LR:                   float32(rc.LR),
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
		EvalCandidates:       evalCandidates,
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
		AdversarialTemp:      float32(rc.AdversarialTemp),
		Cache: train.CacheConfig{
			Capacity:       rc.CacheCapacity,
			EntityFraction: rc.EntityFraction,
			Heterogeneity:  !rc.NoHeterogeneity,
			SyncEvery:      rc.CacheSyncEvery,
			PrefetchD:      rc.CachePrefetchD,
		},
	}
	addrs := rc.ShardAddrs
	if rc.JoinAddr != "" {
		cc, err := ps.DialCoordinator(rc.JoinAddr, 0)
		if err != nil {
			return nil, err
		}
		defer cc.Close()
		if tc.Elastic, err = joinCluster(&rc, cc); err != nil {
			return nil, err
		}
		addrs = tc.Elastic.Join.ShardAddrs
	}
	if len(addrs) > 0 || tc.Elastic != nil {
		codec, lcfg := rc.Codec, rc.linkConfig()
		tc.NewTransport = func(*ps.Cluster) (ps.Transport, error) {
			if len(addrs) != rc.Machines {
				return nil, fmt.Errorf("core: %d shard addresses for %d machines", len(addrs), rc.Machines)
			}
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
	res, err := train.Run(tc)
	if err != nil && tc.Elastic != nil {
		// A failed worker holds its partitions until the coordinator's
		// worker timeout; hand them back now. Best effort: the timeout
		// still releases them if this fails.
		_ = tc.Elastic.Coordinator.Leave(ps.LeaveRequest{WorkerID: tc.Elastic.Join.WorkerID})
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
