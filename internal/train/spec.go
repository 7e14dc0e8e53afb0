package train

import (
	"reflect"
	"time"

	"hetkg/internal/artifact"
	"hetkg/internal/ckpt"
	"hetkg/internal/dataset"
	"hetkg/internal/kg"
	"hetkg/internal/metrics"
	"hetkg/internal/netsim"
)

// RunConfig is the one description of a training run: Run and BuildShard
// take it and derive every object the run uses from it. Its plan-tagged
// fields are the run's declarative knobs: each tag is the knob's plan-file
// key and, through internal/plan, its `hetkg train` flag and its line in the
// canonical config hash. A knob left zero means the default table's value
// (Normalize), and the ones that table leaves zero resolve from the scale
// when the run starts (Resolve). The untagged fields are the process's: a
// graph of its own, shard addresses, checkpoints, sinks.
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
	// and 8. BatchSize (b_p), NegPerPos (b_n) and ChunkSize (b_c)
	// parameterize sampling (§V "Negative Sampling").
	Dim       int     `plan:"dim"`
	LR        float64 `plan:"lr"`
	Epochs    int     `plan:"epochs"`
	BatchSize int     `plan:"batch"`
	NegPerPos int     `plan:"negs"`
	ChunkSize int     `plan:"chunk"`

	// Machines is the cluster size (default 4, the paper's testbed); each
	// machine hosts one PS shard and WorkersPerMachine workers (default 1).
	Machines          int `plan:"machines"`
	WorkersPerMachine int `plan:"workers"`
	// PartitionerName is "metis" (default), "ldg" or "random".
	PartitionerName string `plan:"partitioner"`
	// CostModel prices the metered traffic (default the paper's 1 Gbps).
	CostModel netsim.CostModel

	// CacheCapacity is k, the hot-embedding table's rows per worker
	// (default: 5% of the entity+relation universe). CacheSyncEvery is the
	// staleness bound P: cached values refresh from the PS every P
	// iterations (default 8; negative means unbounded staleness, cached rows
	// are never refreshed). CachePrefetchD is D, the lookahead depth in
	// iterations (default 16): DPS rebuilds the table every D iterations,
	// CPS builds it once from a D-iteration census. EntityFraction is the
	// heterogeneity quota (default 0.25). The baseline trainers ignore them.
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
	// "fp32" (default), "fp16", "int8", "delta-int8", "topk", or "auto"
	// (picked per link from RTT×bandwidth; see ps.ResolveProfile). With
	// ShardAddrs set the profile is negotiated in each connection's TCP
	// handshake; in-process runs reach their shards over in-process links
	// on it.
	Codec string `plan:"codec"`
	// TopKRatio is the fraction of gradient coordinates the "topk" codec's
	// push sparsifier keeps per row (default 0.125, at least one
	// coordinate); the rest accumulate in the worker's error-feedback
	// buffer and are re-sent later.
	TopKRatio float64 `plan:"topkRatio"`
	// RPCTimeout bounds each worker↔shard RPC attempt on TCP links
	// (0 = the link layer's default, negative disables deadlines).
	RPCTimeout time.Duration
	// RPCRetries is the per-RPC retry budget after a link failure
	// (0 = the link layer's default, negative disables retries).
	RPCRetries int
	// DegradedMaxStaleness, when positive, lets cache-backed trainers ride
	// out a shard outage in degraded mode (degraded.go): while a shard link
	// is down (ps.ErrLinkDown), pulls for rows younger than this many
	// iterations are served from the hot cache and pushes buffer for replay
	// on reconnect. 0 disables — any link-down error is fatal. The bound is
	// the degraded mode's correctness contract: a row used for a gradient
	// is never more than max(CacheSyncEvery, DegradedMaxStaleness)
	// iterations stale.
	DegradedMaxStaleness int
	// AdversarialTemp enables self-adversarial negative sampling (Sun et
	// al., RotatE; an extension): each negative's gradient is weighted by
	// softmax(temp · score) across its positive's negatives, focusing the
	// update on hard negatives. 0 is the paper's uniform 1/n weighting.
	AdversarialTemp float64 `plan:"adversarial"`
	// DegreeWeightedNegatives corrupts with entities drawn ∝ degree^0.75
	// (word2vec-style hard negatives) instead of uniformly (extension).
	DegreeWeightedNegatives bool `plan:"degreeNegatives"`
	// Resume, when non-nil, initializes the parameter server from a saved
	// checkpoint's embeddings instead of random values (continue training;
	// not supported together with ShardAddrs — shard processes derive
	// state independently). The checkpoint's model must match ModelName.
	Resume *ckpt.Checkpoint
	// LocalMachines, when non-empty, restricts this process to the workers
	// of the listed machine indices — the multi-process worker deployment,
	// where each trainer process drives one machine's share of the workload
	// against shared (remote) PS shards. Empty = all machines in-process.
	// An elastic run prefers these partitions and trains the ones the
	// coordinator assigns.
	LocalMachines []int
	// ShardAddrs, when non-empty, connects to remote parameter-server
	// shards (one `hetkg ps` process per machine, in machine order) over
	// TCP instead of hosting the shards in this process, which then holds
	// only their layout. Run refuses a list whose length is not
	// Machines.
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
	// (ckpt.WriteProgressFile) for elastic crash recovery. RecoverFrom is
	// where adopted partitions look for snapshots ("" = CkptDir); a missing
	// snapshot resumes from the coordinator's hint, a corrupt one also
	// counts cluster.ckpt_corrupt. CkptEvery is the snapshot iteration
	// interval (0 = 16).
	CkptDir     string
	RecoverFrom string
	CkptEvery   int
	// ClusterLogf, when non-nil, receives worker-side cluster events
	// (joins, adoptions, heartbeat trouble) in elastic mode.
	ClusterLogf func(format string, args ...any)

	// EvalEvery is the epoch interval between validation evaluations
	// (0 = every epoch; one larger than Epochs leaves only the final
	// evaluation; negative turns validation off, the final evaluation
	// included). EvalMax caps the validation triples each evaluation scores
	// (0 = 300). Each triple ranks against evalCandidates sampled
	// candidates.
	EvalEvery int `plan:"evalEvery"`
	EvalMax   int `plan:"evalMax"`

	// Parallelism bounds the cores the deterministic parallel execution
	// engine (internal/par) uses for within-batch gradient computation and
	// validation ranking (0 = all cores; 1 = serial). Losses and metrics are
	// bit-identical at every setting: batch compute merges fixed shards in
	// order and evaluation derives one RNG per test triple, so parallelism
	// changes wall-clock only.
	Parallelism int `plan:"parallelism"`

	// Metrics, when non-nil, is the registry every subsystem (workers, PS
	// client, the shards this process hosts, caches, traffic meters)
	// publishes into — share it with an obs.Server to watch the run live.
	// nil lets the trainer create a private one (returned in
	// Result.Metrics).
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

	// Seed drives every random choice in the run.
	Seed int64 `plan:"seed"`
}

// defaultRun is the one default table: what a knob left zero means, and so
// what `hetkg train` trains with no flags. Dim, epochs, batch size and the
// cache and evaluation knobs are not in it; they resolve later from the
// scale and the graph (Resolve, config.cacheCapacity), and hash as zero.
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

// Resolve fills everything the run leaves zero: the default table, then the
// knobs that derive from the scale and the settings no plan key carries.
// Resolving a resolved config changes nothing, so a caller that resolves a
// run to print it may hand it to Run, whose derivation resolves it again.
func (rc *RunConfig) Resolve() {
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
	if rc.TopKRatio == 0 {
		rc.TopKRatio = 0.125
	}
	if rc.EvalEvery == 0 {
		rc.EvalEvery = 1
	}
	if rc.EvalMax == 0 {
		rc.EvalMax = 300
	}
	if rc.RecoverFrom == "" {
		rc.RecoverFrom = rc.CkptDir
	}
	if rc.CkptEvery == 0 {
		rc.CkptEvery = 16
	}
}
