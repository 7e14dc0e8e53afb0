// Package hetkg is a pure-Go implementation of HET-KG (ICDE 2022):
// communication-efficient distributed knowledge-graph-embedding training via
// a hotness-aware per-worker embedding cache.
//
// The package is the stable public surface over the internal substrates:
//
//   - training systems: HET-KG (CPS/DPS), a DGL-KE-style parameter-server
//     baseline, and a PyTorch-BigGraph-style block baseline;
//   - KGE models (TransE with ℓ1 or ℓ2 distance, DistMult, TransH, ComplEx,
//     RESCAL, HolE, RotatE) with logistic and margin-ranking losses,
//     chunked negative sampling, sparse AdaGrad;
//   - the distributed substrate: a sharded parameter server (in-process and
//     TCP transports), a METIS-like multilevel graph partitioner, and a
//     network cost model that meters local vs remote traffic;
//   - synthetic datasets calibrated to FB15k / WN18 / Freebase-86m plus TSV
//     loaders for real dumps;
//   - link-prediction evaluation (MRR, MR, Hits@k; raw/filtered; full or
//     sampled candidates);
//   - the experiment registry regenerating every table and figure of the
//     paper: each training experiment is a sweep plan run by the same
//     executor as `hetkg apply` (see DESIGN.md and EXPERIMENTS.md).
//
// Quick start:
//
//	res, err := hetkg.Run(hetkg.RunConfig{
//	    Dataset: "fb15k",
//	    Scale:   hetkg.ScaleTiny,
//	    System:  hetkg.SystemHETKGD,
//	})
//	fmt.Println(res.Final) // MRR, Hits@k, MR
//
// A RunConfig field left zero takes the value `hetkg train` uses when its
// flag is not given: RunConfig{} trains HET-KG-D on small fb15k, 4 machines,
// seed 42 — the same run, with the same config hash, as `hetkg train`.
package hetkg

import (
	"io"
	"net"
	"net/http"
	"time"

	"hetkg/internal/artifact"
	"hetkg/internal/ckpt"
	"hetkg/internal/core"
	"hetkg/internal/dataset"
	"hetkg/internal/eval"
	"hetkg/internal/kg"
	"hetkg/internal/knn"
	"hetkg/internal/metrics"
	"hetkg/internal/model"
	"hetkg/internal/netsim"
	"hetkg/internal/obs"
	"hetkg/internal/plan"
	"hetkg/internal/ps"
	"hetkg/internal/serve"
	"hetkg/internal/span"
	"hetkg/internal/telemetry"
	"hetkg/internal/train"
	"hetkg/internal/vec"
)

// RunConfig specifies one training run; see the field docs on train.RunConfig.
type RunConfig = core.RunConfig

// Result is a completed run: per-epoch stats, final metrics, embeddings,
// traffic, and the computation/communication breakdown.
type Result = train.Result

// System identifies a training system implementation.
type System = core.System

// The four systems of the paper's evaluation.
const (
	SystemPBG    = core.SystemPBG
	SystemDGLKE  = core.SystemDGLKE
	SystemHETKGC = core.SystemHETKGC
	SystemHETKGD = core.SystemHETKGD
)

// Systems lists all systems in the paper's table order.
func Systems() []System { return core.Systems() }

// Scale selects synthetic dataset sizes.
type Scale = dataset.Scale

// Scales, smallest to largest. ScalePaper matches the published FB15k/WN18
// statistics (Freebase-86m stays capped; see DESIGN.md).
const (
	ScaleTiny  = dataset.Tiny
	ScaleSmall = dataset.Small
	ScalePaper = dataset.Paper
)

// ParseScale converts "tiny" / "small" / "paper" to a Scale; any other name
// is an error.
func ParseScale(s string) (Scale, error) { return dataset.ParseScale(s) }

// Run executes a training run.
func Run(rc RunConfig) (*Result, error) { return core.Run(rc) }

// ArtifactStore is the content-addressed on-disk cache for expensive
// deterministic intermediates (synthetic datasets, partitioner outputs).
// Attach one via RunConfig.Artifacts to skip regeneration across runs and
// processes; results are bit-identical with or without it.
type ArtifactStore = artifact.Store

// OpenArtifacts opens (creating if needed) an artifact cache directory.
func OpenArtifacts(dir string) (*ArtifactStore, error) { return artifact.Open(dir) }

// Graph is an immutable knowledge graph.
type Graph = kg.Graph

// Triple is one (head, relation, tail) fact.
type Triple = kg.Triple

// EntityID identifies an entity; RelationID identifies a relation.
type (
	EntityID   = kg.EntityID
	RelationID = kg.RelationID
)

// Vocab maps string labels to dense ids and back (built by ReadTSV).
type Vocab = kg.Vocab

// Dataset constructors: deterministic synthetic graphs calibrated to the
// paper's benchmarks.
var (
	FB15kLike       = dataset.FB15kLike
	WN18Like        = dataset.WN18Like
	Freebase86mLike = dataset.Freebase86mLike
)

// DatasetByName resolves a preset name ("fb15k", "wn18", "freebase86m").
func DatasetByName(name string, scale Scale, seed int64) (*Graph, bool) {
	return dataset.ByName(name, scale, seed)
}

// DatasetNames lists the preset names.
func DatasetNames() []string { return dataset.Names() }

// ReadTSV parses "head<TAB>relation<TAB>tail" benchmark files.
func ReadTSV(r io.Reader, name string) (*Graph, *kg.Vocab, error) {
	return kg.ReadTSV(r, name)
}

// Model scores triples; construct with NewModel.
type Model = model.Model

// NewModel returns "transe", "transe_l2", "distmult", "transh", "complex",
// "rescal", "hole", or "rotate".
func NewModel(name string) (Model, error) { return model.New(name) }

// ModelNames lists the model registry.
func ModelNames() []string { return model.Names() }

// Matrix is a dense row-major embedding table.
type Matrix = vec.Matrix

// EvalConfig parameterizes link-prediction evaluation.
type EvalConfig = eval.Config

// EvalResult aggregates MRR, MR and Hits@k.
type EvalResult = eval.Result

// Evaluate runs link prediction over a test set.
func Evaluate(cfg EvalConfig, test []Triple) (EvalResult, error) {
	return eval.Evaluate(cfg, test)
}

// Experiment regenerates one table or figure of the paper.
type Experiment = plan.Experiment

// ExperimentOptions parameterizes an experiment invocation.
type ExperimentOptions = plan.Options

// ExperimentTable is an experiment's output: typed cells that render as the
// paper's text table (Render) and snapshot as exact values (Snapshot).
type ExperimentTable = plan.Table

// Experiments returns the full registry, sorted by ID.
func Experiments() []Experiment { return plan.All() }

// ExperimentByID looks up one experiment ("table3", "fig8a", ...).
func ExperimentByID(id string) (Experiment, bool) { return plan.ByID(id) }

// ExperimentIDs lists all registered experiment IDs.
func ExperimentIDs() []string { return plan.IDs() }

// MetricsRegistry is the named-metric registry every subsystem of a run
// publishes into: counters, gauges, histograms and timers, keyed by the
// canonical names in internal/metrics/names.go (documented in
// EXPERIMENTS.md's metric table).
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty registry. Pass it as
// RunConfig.Metrics to observe a run live through ServeMetrics; leave
// RunConfig.Metrics nil to get a private one back in Result.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// MetricsServer is a running live-introspection endpoint: the registry as
// JSON under /metrics plus the net/http/pprof profiles.
type MetricsServer = obs.Server

// ServeOption adjusts ServeMetrics.
type ServeOption = obs.Option

// MetricsAllowRemote permits ServeMetrics to bind non-loopback addresses.
// The endpoint serves unauthenticated pprof; only use this on a trusted
// network.
func MetricsAllowRemote() ServeOption { return obs.AllowRemote() }

// ServeMetrics starts an introspection endpoint on addr. The endpoint is
// unauthenticated, so non-loopback addresses are refused unless
// MetricsAllowRemote is passed; see DESIGN.md §7.
func ServeMetrics(addr string, reg *MetricsRegistry, opts ...ServeOption) (*MetricsServer, error) {
	return obs.Serve(addr, reg, opts...)
}

// TimelineRun is a parsed run timeline (header plus records).
type TimelineRun = metrics.TimelineRun

// ReadTimelineFile parses a JSONL timeline written via
// RunConfig.TimelinePath or `hetkg train`/`hetkg exp` -timeline.
func ReadTimelineFile(path string) (*TimelineRun, error) {
	return metrics.ReadTimelineFile(path)
}

// SpanDump is a parsed per-batch span dump (header plus spans), written via
// RunConfig.SpanPath or `hetkg train`/`hetkg exp` -span.
type SpanDump = span.Dump

// ReadSpansFile parses a hetkg-spans/v1 JSONL span dump (`hetkg trace chrome`
// prints one as Chrome trace-event JSON for Perfetto).
func ReadSpansFile(path string) (*SpanDump, error) { return span.ReadFile(path) }

// CostModel converts metered traffic into simulated time.
type CostModel = netsim.CostModel

// Default1Gbps mirrors the paper's 1 Gbps testbed network.
func Default1Gbps() CostModel { return netsim.Default1Gbps() }

// PSShard is one parameter-server shard (hosted by `hetkg ps`).
type PSShard = ps.Server

// BuildShard constructs the shard that machine m of the given run owns;
// serve it with ServeShard. A shard derives its rows from the RunConfig its
// trainers derive the layout from, so it needs no state transfer at startup.
func BuildShard(rc RunConfig, machine int) (*PSShard, error) {
	return core.BuildShard(rc, machine)
}

// ServeShard runs a shard's accept loop on l until the listener closes.
func ServeShard(l net.Listener, s *PSShard) { ps.ServeTCP(l, s) }

// Checkpoint is a trained model's persistent state (embeddings + metadata).
type Checkpoint = ckpt.Checkpoint

// WriteCheckpoint atomically saves a checkpoint to path.
func WriteCheckpoint(path string, c *Checkpoint) error { return ckpt.WriteFile(path, c) }

// ReadCheckpoint loads a checkpoint from path.
func ReadCheckpoint(path string) (*Checkpoint, error) { return ckpt.ReadFile(path) }

// KNNIndex is an exact nearest-neighbor index over an embedding table.
type KNNIndex = knn.Index

// KNNResult is one neighbor (row id + similarity score).
type KNNResult = knn.Result

// Similarity metrics for NewKNN.
const (
	KNNCosine = knn.Cosine
	KNNDot    = knn.Dot
	KNNL2     = knn.L2
)

// NewKNN builds an exact similarity index over an embedding matrix.
func NewKNN(m *Matrix, metric knn.Metric) (*KNNIndex, error) { return knn.New(m, metric) }

// ParseKNNMetric parses a similarity metric name: "cosine", "dot", or "l2".
func ParseKNNMetric(s string) (knn.Metric, error) { return knn.ParseMetric(s) }

// KNNScratch is reusable state for allocation-free KNN searches
// (KNNIndex.SearchInto / NeighborsInto).
type KNNScratch = knn.Scratch

// ShardAcceptor serves a PS shard with graceful shutdown: close the
// listener to stop accepting, then Shutdown(grace) to drain in-flight
// connections before force-closing stragglers. Set its Coordinator field
// to make the shard the cluster coordinator (DESIGN.md §11).
type ShardAcceptor = ps.Acceptor

// ClusterMembership is the coordinator's membership state machine: worker
// registration, heartbeats with failure detection, and partition
// reassignment for the elastic multi-process cluster (DESIGN.md §11).
type ClusterMembership = ps.Membership

// MemberConfig parameterizes NewMembership.
type MemberConfig = ps.MemberConfig

// NewMembership builds a cluster coordinator; install it on a
// ShardAcceptor's Coordinator field before serving.
func NewMembership(cfg MemberConfig) (*ClusterMembership, error) { return ps.NewMembership(cfg) }

// CoordClient is a TCP client for the cluster coordinator: workers join,
// heartbeat, and leave through it, and any process can ship telemetry
// reports over the same connection (DESIGN.md §12).
type CoordClient = ps.CoordClient

// DialCoordinator connects to the cluster coordinator at addr.
func DialCoordinator(addr string, timeout time.Duration) (*CoordClient, error) {
	return ps.DialCoordinator(addr, timeout)
}

// FleetTelemetry is the coordinator-side fleet aggregator: it ingests
// labeled metric-registry snapshots from every process, keeps ring-buffered
// time series with derived rates, and runs the straggler / cache-degradation
// / comm-stall health rules (DESIGN.md §12). Install it on a coordinator's
// MemberConfig.Telemetry and mount it with MetricsRoute("/fleet", fleet).
type FleetTelemetry = telemetry.Fleet

// FleetTelemetryConfig parameterizes NewFleetTelemetry.
type FleetTelemetryConfig = telemetry.FleetConfig

// NewFleetTelemetry builds a fleet aggregator.
func NewFleetTelemetry(cfg FleetTelemetryConfig) *FleetTelemetry {
	return telemetry.NewFleet(cfg)
}

// TelemetryReport is one process's labeled metric snapshot, shipped to the
// coordinator's fleet aggregator.
type TelemetryReport = telemetry.Report

// TelemetrySender delivers telemetry reports to a fleet aggregator; both
// *CoordClient (over TCP) and *ClusterMembership (in-process) implement it.
type TelemetrySender = telemetry.Sender

// TelemetryShipper periodically snapshots a registry and ships it to a
// coordinator; hosts that are not elastic workers (shards, serve processes)
// run one.
type TelemetryShipper = telemetry.Shipper

// NewTelemetryShipper builds a shipper; call Start to begin shipping and
// Stop for a final flush on shutdown.
func NewTelemetryShipper(role, label string, snap func() metrics.Snapshot, send TelemetrySender,
	every time.Duration, logf func(format string, args ...any)) *TelemetryShipper {
	return telemetry.NewShipper(role, label, snap, send, every, logf)
}

// Telemetry roles: the process kinds a fleet aggregator distinguishes.
const (
	TelemetryRoleWorker = telemetry.RoleWorker
	TelemetryRoleShard  = telemetry.RoleShard
	TelemetryRoleServe  = telemetry.RoleServe
)

// MetricsRoute mounts an extra handler on a ServeMetrics endpoint — the
// coordinator mounts its fleet aggregator as MetricsRoute("/fleet", fleet).
func MetricsRoute(pattern string, h http.Handler) ServeOption {
	return obs.WithRoute(pattern, h)
}

// QueryServer is the online inference server: it answers triple-scoring,
// link-prediction, and embedding-similarity queries over a trained
// checkpoint's in-memory tables. See DESIGN.md §9.
type QueryServer = serve.Server

// QueryServerConfig parameterizes NewQueryServer.
type QueryServerConfig = serve.Config

// NewQueryServer builds a query server over a loaded checkpoint.
func NewQueryServer(cfg QueryServerConfig) (*QueryServer, error) { return serve.New(cfg) }
