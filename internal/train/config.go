// Package train implements the distributed KGE training systems the paper
// compares: HET-KG (parameter server + hot-embedding cache, in CPS and DPS
// variants), a DGL-KE-style trainer (parameter server, no cache), and a
// PyTorch-BigGraph-style trainer (entity buckets swapped through a shared
// filesystem, relations as dense parameters). Run trains any of them;
// RunConfig.System picks which.
//
// All of them run on the same substrate — models, samplers, optimizers, the
// sharded PS, the partitioner, and the netsim cost model — so measured
// differences isolate the system mechanism, which is the comparison the
// paper's evaluation makes.
package train

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"hetkg/internal/dataset"
	"hetkg/internal/eval"
	"hetkg/internal/kg"
	"hetkg/internal/metrics"
	"hetkg/internal/model"
	"hetkg/internal/netsim"
	"hetkg/internal/opt"
	"hetkg/internal/partition"
	"hetkg/internal/ps"
	"hetkg/internal/sampler"
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

// config is one training run as the trainers take it: the run's
// description (the embedded RunConfig) and the objects derive builds from
// it. The trainers read the objects, not the names they came from (model,
// not ModelName), and only derive sets them.
type config struct {
	RunConfig

	// train holds the training triples. valid, when non-empty, is scored
	// for MRR every EvalEvery epochs to build convergence curves. filter
	// enables filtered negative sampling and filtered evaluation.
	train  *kg.Graph
	valid  []kg.Triple
	filter *kg.TripleSet

	model model.Model
	loss  model.Loss
	// part distributes entities across machines.
	part partition.Partitioner
	// newOpt supplies the gradient applier used by both the PS shards and
	// the workers' cached copies.
	newOpt func() opt.Optimizer
	// negWeights, when non-nil, draws corrupting entities from this
	// unnormalized distribution instead of uniformly (deg^0.75 when
	// DegreeWeightedNegatives is set).
	negWeights []float64

	// elastic, when non-nil, runs this process as one elastic worker of a
	// coordinated cluster (parameter-server systems only).
	elastic *membership
	// timeline and spans are the sinks TimelinePath and SpanPath name. A
	// nil timeline records nothing; a nil collector leaves every tracer
	// nil, which disables tracing at zero cost.
	timeline *os.File
	spans    *span.Collector

	hooks hooks
}

// hooks stand in for what a test cannot name in a RunConfig; Run passes
// none.
type hooks struct {
	// candidates and bufferCap, when positive, stand in for evalCandidates
	// and degradedMaxBufferedRows, so a test can shrink them.
	candidates, bufferCap int
	// wrapInProc, when non-nil, wraps the in-process transport of a run
	// that hosts its shards, so a test can inject faults; the wrapper goes
	// behind in-process links on Codec.
	wrapInProc func(ps.Transport) (ps.Transport, error)
	// partitioner, when non-nil, replaces the named one (a fake that
	// builds a degenerate partition).
	partitioner partition.Partitioner
	// coordinator, when non-nil, makes the run an elastic worker of this
	// in-process coordinator, registered as label: JoinAddr without the
	// socket.
	coordinator ps.Coordinator
	label       string
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

// Split is the train/valid/test split a run with this seed trains and
// validates on — the one derivation, so a tool scoring a checkpoint's test
// triples (`hetkg eval`) can never be handed triples the run trained on.
// Freebase-86m uses 90/5/5 in the paper; the standard benchmarks keep small
// validation/test tails at our scales.
func Split(g *kg.Graph, seed int64) (kg.Split, error) {
	return kg.SplitTriples(g, rand.New(rand.NewSource(seed+17)), 0.05, 0.05)
}

// derive resolves rc and derives from its names and seeds every object the
// run uses. Every process of a run derives the same dataset, split,
// partition and rows this way, because shards receive no state transfer. A
// shard (BuildShard) stops at the layout: it builds no filter index or
// corruption weights, opens no sink and joins no coordinator. A trainer
// opens its sinks before it joins (elastic.go), so a sink that fails
// cannot leave it registered; release closes what derive opened.
func derive(rc RunConfig, h hooks, shard bool) (*config, error) {
	rc.Resolve()
	g := rc.Graph
	if g == nil {
		var ok bool
		g, ok = dataset.ByNameCached(rc.Dataset, rc.Scale, rc.Seed, rc.Artifacts)
		if !ok {
			return nil, fmt.Errorf("train: unknown dataset %q (have %v)", rc.Dataset, dataset.Names())
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
	loss, err := model.NewLoss(rc.LossName, float32(rc.Margin))
	if err != nil {
		return nil, err
	}
	c := &config{
		RunConfig: rc,
		train:     sp.Train,
		valid:     sp.Valid.Triples,
		model:     mdl,
		loss:      loss,
		part:      partition.Cached(part, rc.Artifacts),
		newOpt: func() opt.Optimizer {
			o, _ := opt.New(name, lr) // validated above
			return o
		},
		hooks: h,
	}
	if h.partitioner != nil {
		c.part = h.partitioner
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	if shard {
		return c, nil
	}
	c.filter = sp.AllTriples()
	if rc.DegreeWeightedNegatives {
		c.negWeights = sampler.DegreeWeights(sp.Train.EntityDegrees())
	}
	if rc.TimelinePath != "" {
		if dir := filepath.Dir(rc.TimelinePath); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, fmt.Errorf("train: creating timeline directory: %w", err)
			}
		}
		if c.timeline, err = os.Create(rc.TimelinePath); err != nil {
			return nil, fmt.Errorf("train: creating timeline: %w", err)
		}
	}
	if rc.SpanPath != "" {
		c.spans = span.NewCollector(span.CollectorConfig{Every: rc.SpanEvery})
	}
	if c.joins() {
		if err := c.join(); err != nil {
			_, err = c.release(nil, err)
			return nil, err
		}
	}
	return c, nil
}

// release closes what derive opened for the run that ended with res and
// err: a failed elastic worker hands its partitions back (a finished one
// already left), the coordinator connection and the timeline close, and
// a successful run's spans are written.
func (c *config) release(res *Result, err error) (*Result, error) {
	if e := c.elastic; e != nil {
		if err != nil {
			// A failed worker holds its partitions until the coordinator's
			// worker timeout; hand them back now. Best effort: the timeout
			// still releases them if this fails.
			_ = e.coordinator.Leave(ps.LeaveRequest{WorkerID: e.join.WorkerID})
		}
		closeCoordinator(e.coordinator)
	}
	if c.timeline != nil {
		if cerr := c.timeline.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("train: closing timeline: %w", cerr)
		}
	}
	if c.spans != nil && err == nil {
		hdr := span.Header{System: res.System, Dataset: c.Dataset, Every: c.spans.Every(), Seed: c.Seed}
		if werr := span.WriteFile(c.SpanPath, hdr, c.spans.Drain()); werr != nil {
			return res, fmt.Errorf("train: writing spans: %w", werr)
		}
	}
	return res, err
}

// validate checks the resolved configuration, the elastic checks that need
// a join reply aside (join). It creates a private Metrics registry when
// none is given.
func (c *config) validate() error {
	if c.train.NumTriples() == 0 {
		return fmt.Errorf("train: empty graph")
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
	if c.joins() {
		switch {
		case c.System == SystemPBG:
			return fmt.Errorf("train: system %s does not support elastic mode", c.System)
		case c.WorkersPerMachine > 1:
			return fmt.Errorf("train: elastic mode supports 1 worker per machine, got %d", c.WorkersPerMachine)
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
func (c *config) cacheCapacity() int {
	universe := c.train.NumEntity + c.train.NumRel
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
	// Metrics is the run's registry (RunConfig.Metrics, or the one validate
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
func evalNow(cfg *config, ents, rels *vec.Matrix) (eval.Result, error) {
	test := cfg.valid
	if cfg.EvalMax > 0 && len(test) > cfg.EvalMax {
		test = test[:cfg.EvalMax]
	}
	return eval.Evaluate(eval.Config{
		Model:         cfg.model,
		Entities:      ents,
		Relations:     rels,
		Filter:        cfg.filter,
		NumCandidates: cmp.Or(cfg.hooks.candidates, evalCandidates),
		Seed:          cfg.Seed + 1000,
		Parallelism:   cfg.Parallelism,
	}, test)
}
