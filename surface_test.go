package hetkg_test

import (
	"math/rand"
	"net"
	"net/http"
	"time"

	"hetkg"
	"hetkg/internal/cache"
	"hetkg/internal/kg"
	"hetkg/internal/knn"
	"hetkg/internal/metrics"
	"hetkg/internal/model"
	"hetkg/internal/netsim"
	"hetkg/internal/opt"
	"hetkg/internal/par"
	"hetkg/internal/partition"
	"hetkg/internal/ps"
	"hetkg/internal/sampler"
	"hetkg/internal/vec"
)

// This file freezes the surface benchmark/ compiles against. benchmark/ is
// its own module (hetkg/benchmark, replacing hetkg with ..) that tier-1
// `go test ./...` never builds, and its files may not change in a PR that is
// measured by it — so every identifier, signature, field and method it uses
// from this module is pinned here by assignment to a typed variable. A
// rename or signature change then fails to compile in tier-1 instead of
// failing the benchmark driver later. Derived from
// `grep -ohE '\b(ps|cache|…)\.[A-Z]\w*' benchmark/*.go`; extend it when
// benchmark/ starts using something new.

// Functions and constructors, by exact signature.
var (
	_ func(*ps.Cluster) *ps.InProc                                                          = ps.NewInProc
	_ func(ps.Transport, *ps.Cluster, string, netsim.CostModel) (*ps.CodecTransport, error) = ps.NewCodecTransport
	_ func([]string, string, ps.LinkConfig) (*ps.TCPTransport, error)                       = ps.DialTCPLink
	_ func(int, *ps.Cluster, ps.Transport, *netsim.Meter) (*ps.Client, error)               = ps.NewClient
	_ func(ps.ClusterConfig) (*ps.Cluster, error)                                           = ps.NewCluster
	_ func(kg.EntityID) ps.Key                                                              = ps.EntityKey
	_ func(kg.RelationID) ps.Key                                                            = ps.RelationKey
	_ func(*ps.Client, opt.Optimizer, int) (*cache.HotCache, error)                         = cache.New
	_ func(*sampler.Sampler, int) *cache.Prefetched                                         = cache.Prefetch
	_ func(*cache.Prefetched, cache.FilterConfig) ([]ps.Key, error)                         = cache.Filter
	_ func(sampler.Config, *kg.Graph, *rand.Rand) (*sampler.Sampler, error)                 = sampler.New
	_ func(*kg.Graph, *rand.Rand, float64, float64) (kg.Split, error)                       = kg.SplitTriples
	_ func(string) (model.Model, error)                                                     = model.New
	_ func(string, float32) (model.Loss, error)                                             = model.NewLoss
	_ func(string, float32) (opt.Optimizer, error)                                          = opt.New
	_ func(string, int64) (partition.Partitioner, error)                                    = partition.New
	_ func() netsim.CostModel                                                               = netsim.Default1Gbps
	_ func() *metrics.Registry                                                              = metrics.NewRegistry
	_ func(int) int                                                                         = par.Degree
	_ func(int, int) []par.Range                                                            = par.Shards
	_ func(int, int, func(int))                                                             = par.For
	_ func(int, int) *vec.Matrix                                                            = vec.NewMatrix
	_ func([]float32, []float32, []float32)                                                 = vec.Add
	_ func([]float32)                                                                       = vec.Zero
	_ func(hetkg.RunConfig) (*hetkg.Result, error)                                          = hetkg.Run
	_ func(hetkg.RunConfig, int) (*ps.Server, error)                                        = hetkg.BuildShard
	_ func(string, hetkg.Scale, int64) (*hetkg.Graph, bool)                                 = hetkg.DatasetByName
	_ func(string) (hetkg.Model, error)                                                     = hetkg.NewModel
	_ func(hetkg.EvalConfig, []hetkg.Triple) (hetkg.EvalResult, error)                      = hetkg.Evaluate
	_ func(hetkg.QueryServerConfig) (*hetkg.QueryServer, error)                             = hetkg.NewQueryServer
)

// Methods, as method expressions.
var (
	_ func(*ps.Client, []ps.Key, map[ps.Key][]float32) error = (*ps.Client).Pull
	_ func(*ps.Client, map[ps.Key][]float32) error           = (*ps.Client).Push
	_ func(*ps.Server, []ps.Key, []float32) error            = (*ps.Server).Push
	_ func(*ps.Server, ps.Key) int                           = (*ps.Server).Width
	_ func(*ps.Acceptor, net.Listener, *ps.Server)           = (*ps.Acceptor).Serve
	_ func(*ps.Acceptor, time.Duration)                      = (*ps.Acceptor).Shutdown

	_ func(*cache.HotCache, []ps.Key, int) error           = (*cache.HotCache).Build
	_ func(*cache.HotCache, ps.Key, int) ([]float32, bool) = (*cache.HotCache).Get
	_ func(*cache.HotCache, ps.Key, []float32, int)        = (*cache.HotCache).Offer
	_ func(*cache.HotCache, ps.Key, []float32)             = (*cache.HotCache).Update

	_ func(*sampler.Sampler) *sampler.Batch                                             = (*sampler.Sampler).Next
	_ func(*sampler.Sampler) int                                                        = (*sampler.Sampler).IterationsPerEpoch
	_ func(*sampler.Batch) ([]kg.EntityID, []kg.RelationID)                             = (*sampler.Batch).DistinctIDs
	_ func(*partition.Result, *kg.Graph) float64                                        = (*partition.Result).CutFraction
	_ func(*partition.Result, *kg.Graph) []*kg.Graph                                    = (*partition.Result).Subgraphs
	_ func(*kg.Graph) int                                                               = (*kg.Graph).NumTriples
	_ func(kg.Split) *kg.TripleSet                                                      = kg.Split.AllTriples
	_ func(*vec.Matrix, *rand.Rand)                                                     = (*vec.Matrix).InitKGE
	_ func(*metrics.Registry, string) *metrics.Counter                                  = (*metrics.Registry).Counter
	_ func(*metrics.Registry, string) *metrics.Histogram                                = (*metrics.Registry).Histogram
	_ func(*metrics.Counter) int64                                                      = (*metrics.Counter).Value
	_ func(*metrics.Histogram) int64                                                    = (*metrics.Histogram).Count
	_ func(*hetkg.QueryServer, string, bool) (net.Listener, error)                      = (*hetkg.QueryServer).Listen
	_ func(*hetkg.QueryServer) http.Handler                                             = (*hetkg.QueryServer).Handler
	_ func(*hetkg.QueryServer)                                                          = (*hetkg.QueryServer).Close
	_ func(*hetkg.QueryServer) *metrics.Registry                                        = (*hetkg.QueryServer).Registry
	_ func(*hetkg.QueryServer, int, int, int) (float32, error)                          = (*hetkg.QueryServer).ScoreTriple
	_ func(*hetkg.QueryServer) *hetkg.ServingHotTier                                    = (*hetkg.QueryServer).Cache
	_ func(*hetkg.ServingHotTier) float64                                               = (*hetkg.ServingHotTier).HitRatio
	_ func(*hetkg.ServingHotTier) int64                                                 = (*hetkg.ServingHotTier).Rebuilds
	_ func(*hetkg.QueryServer, []knn.Result, int, int, bool, int) ([]knn.Result, error) = (*hetkg.QueryServer).PredictInto
	_ func(*hetkg.QueryServer, []knn.Result, int, int) ([]knn.Result, error)            = (*hetkg.QueryServer).NeighborsInto
)

type surfaceTransport struct{}

func (surfaceTransport) Pull(int, *ps.PullRequest) (*ps.PullResponse, error) { return nil, nil }
func (surfaceTransport) Push(int, *ps.PushRequest) error                     { return nil }
func (surfaceTransport) Close() error                                        { return nil }

// Interfaces benchmark/ implements or calls through.
var (
	// benchmark's timedTransport decorates a ps.Transport with exactly
	// these three methods, so the interface may neither lose nor gain one.
	_ ps.Transport = surfaceTransport{}
	_ ps.Transport = (*ps.InProc)(nil)
	_ ps.Transport = (*ps.CodecTransport)(nil)
	_ ps.Transport = (*ps.TCPTransport)(nil)

	_ interface {
		EntityDim(int) int
		RelationDim(int) int
		Score(h, r, t []float32) float32
		Grad(h, r, t []float32, dScore float32, gh, gr, gt []float32)
	} = model.Model(nil)
	_ interface {
		PosNeg(pos, neg float32) (loss, dPos, dNeg float32)
	} = model.Loss(nil)
	_ interface {
		Partition(*kg.Graph, int) (*partition.Result, error)
	} = partition.Partitioner(nil)
)

// Constants and metric names.
var (
	_ string = ps.ProfileFP32
	_        = []hetkg.System{hetkg.SystemDGLKE, hetkg.SystemHETKGC, hetkg.SystemHETKGD}
	_        = []hetkg.Scale{hetkg.ScaleTiny, hetkg.ScaleSmall}
	_        = []string{
		metrics.MCacheHits, metrics.MCacheMisses, metrics.MCacheRefreshRows,
		metrics.MPSBytesRx, metrics.MPSBytesTx,
		metrics.MPSCodecBytesRaw, metrics.MPSCodecBytesWire, metrics.MPSCodecRowsDelta,
		metrics.MPSLinkRetries,
		metrics.MPSPullRPCs, metrics.MPSPullRows, metrics.MPSPushRPCs,
		metrics.MPSServerRowsPulled, metrics.MPSServerRowsPushed,
		metrics.MServeBatchSize, metrics.MTrainIterations, metrics.MTrainPairs,
	}
)

// The struct fields benchmark/ reads or sets, by composite literal and typed
// selector. Never called: compiling is the test.
func _() {
	_ = ps.PullRequest{Keys: []ps.Key(nil)}
	_ = ps.PullResponse{Vals: []float32(nil)}
	_ = ps.PushRequest{Keys: []ps.Key(nil), Vals: []float32(nil)}
	_ = ps.LinkConfig{Seed: int64(0)}
	_ = ps.ClusterConfig{
		NumMachines: 0, EntityPart: []int32(nil), NumRelations: 0,
		EntityDim: 0, RelationDim: 0,
		NewOptimizer: (func() opt.Optimizer)(nil), Seed: int64(0),
	}
	var _ []*ps.Server = (&ps.Cluster{}).Servers
	_ = &ps.Acceptor{} // benchmark/ starts from the zero Acceptor

	_ = cache.FilterConfig{Capacity: 0, EntityFraction: 0.25, Heterogeneity: true}
	var _ []*sampler.Batch = (&cache.Prefetched{}).Batches

	_ = sampler.Config{
		BatchSize: 0, NegPerPos: 0, ChunkSize: 0, NumEntity: 0,
		Filter: (*kg.TripleSet)(nil),
	}
	var b sampler.Batch
	var _ []kg.Triple = b.Pos
	if len(b.Neg) > 0 {
		var _ []kg.EntityID = b.Neg[0].Entities
		var _ bool = b.Neg[0].CorruptHead
	}

	var sp kg.Split
	var _, _ *kg.Graph = sp.Train, sp.Valid
	var _ []kg.Triple = sp.Valid.Triples
	var _, _ int = (&kg.Graph{}).NumEntity, (&kg.Graph{}).NumRel
	var _ []int32 = (&partition.Result{}).EntityPart
	var _, _ int = par.Range{}.Begin, par.Range{}.End
	_ = knn.Result{}

	_ = hetkg.RunConfig{
		Graph: (*hetkg.Graph)(nil), Dataset: "", Scale: hetkg.ScaleTiny, System: hetkg.SystemDGLKE,
		ModelName: "", Machines: 0, Dim: 0, BatchSize: 0, NegPerPos: 0, Epochs: 0,
		EvalEvery: 0, Seed: int64(0), Codec: "", ShardAddrs: []string(nil),
		CacheBudget: 0.0, CacheSyncEvery: 0, CachePrefetchD: 0,
		Metrics: (*metrics.Registry)(nil),
	}
	var res hetkg.Result
	var _, _ *vec.Matrix = res.Entities, res.Relations
	if len(res.Epochs) > 0 {
		var _ float64 = res.Epochs[0].Loss
	}
	_ = hetkg.EvalConfig{
		Model: hetkg.Model(nil), Entities: (*vec.Matrix)(nil), Relations: (*vec.Matrix)(nil),
		Filter: (*kg.TripleSet)(nil), NumCandidates: 0, Seed: int64(0),
	}
	var _ float64 = hetkg.EvalResult{}.MRR
	_ = hetkg.Checkpoint{
		ModelName: "", Dim: 0, Dataset: "", Seed: int64(0), System: "",
		Entities: (*vec.Matrix)(nil), Relations: (*vec.Matrix)(nil),
	}
	_ = hetkg.QueryServerConfig{Checkpoint: (*hetkg.Checkpoint)(nil)}
}
