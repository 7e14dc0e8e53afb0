package train

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"hetkg/internal/ckpt"
	"hetkg/internal/dataset"
	"hetkg/internal/kg"
	"hetkg/internal/metrics"
	"hetkg/internal/model"
	"hetkg/internal/netsim"
	"hetkg/internal/opt"
	"hetkg/internal/partition"
	"hetkg/internal/ps"
)

func testCostModel() netsim.CostModel {
	cm := netsim.Default1Gbps()
	cm.RemoteLatency = 10 * time.Microsecond
	return cm
}

// testConfig returns a small but non-trivial training setup.
func testConfig(t *testing.T, machines int) Config {
	t.Helper()
	g := dataset.MustGenerate(dataset.Config{
		Name: "traintest", NumEntity: 300, NumRel: 20, NumTriples: 3000,
		EntityZipf: 0.9, RelationZipf: 1.0, Seed: 21,
	})
	rng := rand.New(rand.NewSource(22))
	sp, err := kg.SplitTriples(g, rng, 0.05, 0.05)
	if err != nil {
		t.Fatalf("SplitTriples: %v", err)
	}
	return Config{
		RunConfig: RunConfig{
			System:    SystemHETKGC,
			Dim:       32, // large enough that traffic is bandwidth-bound, as in the paper
			LR:        0.1,
			Epochs:    3,
			BatchSize: 64,
			NegPerPos: 4,
			ChunkSize: 4,
			Machines:  machines,
			// The paper trains at d=400 (1.6 KB rows), where traffic cost is
			// bandwidth-bound. At this test's d=32, stock per-message latency
			// would dominate instead, so scale it down to stay in the paper's
			// regime.
			CostModel:     testCostModel(),
			EvalMax:       100,
			Seed:          23,
			CacheCapacity: 60,
		},
		Train:        sp.Train,
		Valid:        sp.Valid.Triples,
		Filter:       sp.AllTriples(),
		Model:        model.TransE{Norm: 1},
		Loss:         model.LogisticLoss{},
		Partitioner:  &partition.MetisLike{Seed: 23},
		NewOptimizer: func() opt.Optimizer { return opt.NewAdaGrad(0.1, 1e-10) },
		candidates:   50,
	}
}

func TestDGLKELossDecreasesAndLearns(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.System = SystemDGLKE
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("DGL-KE: %v", err)
	}
	if len(res.Epochs) != cfg.Epochs {
		t.Fatalf("recorded %d epochs, want %d", len(res.Epochs), cfg.Epochs)
	}
	first, last := res.Epochs[0].Loss, res.Epochs[len(res.Epochs)-1].Loss
	if last >= first {
		t.Errorf("loss did not decrease: %.4f → %.4f", first, last)
	}
	// 50 sampled candidates → chance MRR ≈ 0.09. Trained should beat it.
	if res.Final.MRR < 0.15 {
		t.Errorf("final MRR %.3f barely above chance", res.Final.MRR)
	}
	if res.Comp <= 0 || res.Comm <= 0 {
		t.Error("missing time accounting")
	}
	if res.Traffic.RemoteBytes == 0 {
		t.Error("2-machine run produced no remote traffic")
	}
	if res.System != "DGL-KE" {
		t.Errorf("System = %q", res.System)
	}
}

func TestHETKGCPSReducesRemoteTraffic(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.System = SystemDGLKE
	base, err := Run(cfg)
	if err != nil {
		t.Fatalf("DGL-KE: %v", err)
	}
	cfg.System = SystemHETKGC
	het, err := Run(cfg)
	if err != nil {
		t.Fatalf("HET-KG: %v", err)
	}
	if het.System != "HET-KG-C" {
		t.Errorf("System = %q", het.System)
	}
	if het.HitRatio <= 0 {
		t.Fatalf("hit ratio = %v, cache never hit", het.HitRatio)
	}
	if het.Traffic.RemoteBytes >= base.Traffic.RemoteBytes {
		t.Errorf("HET-KG remote bytes %d not below DGL-KE %d",
			het.Traffic.RemoteBytes, base.Traffic.RemoteBytes)
	}
	if het.Comm >= base.Comm {
		t.Errorf("HET-KG comm %v not below DGL-KE %v", het.Comm, base.Comm)
	}
	// Quality must stay in the same band (the paper's central claim).
	if het.Final.MRR < base.Final.MRR*0.7 {
		t.Errorf("HET-KG MRR %.3f collapsed vs DGL-KE %.3f", het.Final.MRR, base.Final.MRR)
	}
}

func TestHETKGDPS(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.System = SystemHETKGD
	cfg.CachePrefetchD = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("HET-KG-D: %v", err)
	}
	if res.System != "HET-KG-D" {
		t.Errorf("System = %q", res.System)
	}
	if res.HitRatio <= 0 {
		t.Error("DPS cache never hit")
	}
	if res.Final.MRR < 0.1 {
		t.Errorf("DPS MRR %.3f too low", res.Final.MRR)
	}
}

// TestCodecLessRunIsFP32: a run with no codec and one with Codec "fp32"
// are one program, both over fp32 in-process links, so a tiny HET-KG-D run
// reads the same either way: losses, MRR, embeddings, metered traffic,
// simulated comm time, ps.bytes_tx/rx and ps.codec.bytes_raw/wire. The
// codec-less run once went through a second path that counted no codec
// bytes.
func TestCodecLessRunIsFP32(t *testing.T) {
	run := func(codec string) (*Result, *metrics.Registry) {
		t.Helper()
		cfg := testConfig(t, 2)
		cfg.Epochs = 2
		cfg.System = SystemHETKGD
		cfg.CachePrefetchD = 8
		cfg.Codec = codec
		cfg.Metrics = metrics.NewRegistry()
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("codec %q: %v", codec, err)
		}
		return res, cfg.Metrics
	}
	bare, bareReg := run("")
	fp32, fp32Reg := run(ps.ProfileFP32)
	if len(bare.Epochs) != len(fp32.Epochs) {
		t.Fatalf("%d epochs against %d", len(bare.Epochs), len(fp32.Epochs))
	}
	for i, e := range bare.Epochs {
		f := fp32.Epochs[i]
		if e.Loss != f.Loss || e.MRR != f.MRR || e.Comm != f.Comm {
			t.Errorf("epoch %d: loss %v, MRR %v, comm %v without a codec; %v, %v, %v with fp32",
				e.Epoch, e.Loss, e.MRR, e.Comm, f.Loss, f.MRR, f.Comm)
		}
	}
	if bare.Final.MRR != fp32.Final.MRR || bare.Traffic != fp32.Traffic || bare.Comm != fp32.Comm {
		t.Errorf("final MRR %v, traffic %v, comm %v without a codec; %v, %v, %v with fp32",
			bare.Final.MRR, bare.Traffic, bare.Comm, fp32.Final.MRR, fp32.Traffic, fp32.Comm)
	}
	for i, v := range bare.Entities.Data {
		if math.Float32bits(v) != math.Float32bits(fp32.Entities.Data[i]) {
			t.Fatalf("entity value %d: %v without a codec, %v with fp32", i, v, fp32.Entities.Data[i])
		}
	}
	for _, name := range []string{metrics.MPSBytesTx, metrics.MPSBytesRx, metrics.MPSCodecBytesRaw, metrics.MPSCodecBytesWire} {
		a, b := bareReg.Counter(name).Value(), fp32Reg.Counter(name).Value()
		if a != b || a == 0 {
			t.Errorf("%s = %d without a codec, %d with fp32; want equal and non-zero", name, a, b)
		}
	}
}

func TestDPSHitRatioBeatsCPSUnderTightCapacity(t *testing.T) {
	// DPS adapts to short-term access patterns; with a small cache its
	// hit ratio should be at least CPS's (§IV-B.2).
	cfg := testConfig(t, 2)
	cfg.CacheCapacity = 25
	cfg.Epochs = 2
	cps, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.System = SystemHETKGD
	cfg.CachePrefetchD = 8
	dps, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hit ratios: CPS=%.3f DPS=%.3f", cps.HitRatio, dps.HitRatio)
	if dps.HitRatio < cps.HitRatio*0.9 {
		t.Errorf("DPS hit ratio %.3f well below CPS %.3f", dps.HitRatio, cps.HitRatio)
	}
}

func TestPBGRuns(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Epochs = 6
	cfg.System = SystemPBG
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("PBG: %v", err)
	}
	if res.System != "PBG" {
		t.Errorf("System = %q", res.System)
	}
	if len(res.Epochs) != cfg.Epochs {
		t.Fatalf("epochs = %d", len(res.Epochs))
	}
	first, last := res.Epochs[0].Loss, res.Epochs[len(res.Epochs)-1].Loss
	if last >= first {
		t.Errorf("PBG loss did not decrease: %.4f → %.4f", first, last)
	}
	if res.Final.MRR < 0.1 {
		t.Errorf("PBG MRR %.3f barely above chance", res.Final.MRR)
	}
	if res.Traffic.RemoteBytes == 0 {
		t.Error("PBG moved no bucket traffic")
	}
}

func TestPBGCommDominatedByRelationsOnManyRelationGraph(t *testing.T) {
	// PBG's dense relation sync makes its communication much heavier than
	// the PS systems' on a graph with many relations — Fig. 7's shape.
	cfg := testConfig(t, 2)
	cfg.Epochs = 1
	cfg.System = SystemPBG
	pbg, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.System = SystemHETKGC
	het, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pbg.Comm <= het.Comm {
		t.Errorf("PBG comm %v should exceed HET-KG comm %v", pbg.Comm, het.Comm)
	}
}

func TestSingleMachineHasNoRemoteTraffic(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Epochs = 1
	cfg.System = SystemDGLKE
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traffic.RemoteBytes != 0 || res.Traffic.RemoteMsgs != 0 {
		t.Errorf("1-machine run produced remote traffic: %+v", res.Traffic)
	}
	if res.Traffic.LocalBytes == 0 {
		t.Error("no local traffic metered")
	}
}

func TestTrainingDeterministic(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Epochs = 1
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Epochs[0].Loss != b.Epochs[0].Loss {
		t.Errorf("loss differs across identical runs: %v vs %v", a.Epochs[0].Loss, b.Epochs[0].Loss)
	}
	for i := range a.Entities.Data {
		if a.Entities.Data[i] != b.Entities.Data[i] {
			t.Fatalf("entity embeddings differ at %d", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(t, 1)
	tests := []func(*Config){
		func(c *Config) { c.Train = nil },
		func(c *Config) { c.Model = nil },
		func(c *Config) { c.Loss = nil },
		func(c *Config) { c.Partitioner = nil },
		func(c *Config) { c.NewOptimizer = nil },
		// A knob left zero means its default, so the out-of-range values
		// are negative.
		func(c *Config) { c.Dim = -1 },
		func(c *Config) { c.LR = -1 },
		func(c *Config) { c.Epochs = -1 },
		func(c *Config) { c.BatchSize = -1 },
		func(c *Config) { c.NegPerPos = -1 },
		func(c *Config) { c.Machines = -1 },
		func(c *Config) { c.WorkersPerMachine = -1 },
		func(c *Config) { c.System = "nope" },
		func(c *Config) { c.CachePrefetchD = -1 },
		func(c *Config) { c.CkptEvery = -1 },
		func(c *Config) { c.JoinAddr, c.ShardAddrs = "127.0.0.1:1", []string{"127.0.0.1:2"} },
		func(c *Config) { c.ShardAddrs = []string{"127.0.0.1:1", "127.0.0.1:2"} }, // 2 shards, 1 machine
		func(c *Config) {
			c.Elastic = &ElasticConfig{Coordinator: elasticMembership(t, 1),
				Join: &ps.JoinReply{Partitions: 1, ShardAddrs: []string{"127.0.0.1:1", "127.0.0.1:2"}}}
		},
		func(c *Config) { c.Resume = &ckpt.Checkpoint{ModelName: "distmult"} },
	}
	for i, mutate := range tests {
		cfg := good
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	cfg := good
	if err := cfg.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	if cfg.WorkersPerMachine != 1 || cfg.CachePrefetchD != 16 || cfg.TopKRatio != 0.125 {
		t.Error("defaults not filled")
	}
}

func TestMoreMachinesMoreRemoteComm(t *testing.T) {
	// Table I's driver: with more machines a larger share of pulls is
	// remote, so DGL-KE's comm fraction grows.
	cfg1 := testConfig(t, 1)
	cfg1.Epochs = 1
	cfg1.EvalEvery = -1
	cfg1.System = SystemDGLKE
	r1, err := Run(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg4 := testConfig(t, 4)
	cfg4.Epochs = 1
	cfg4.EvalEvery = -1
	cfg4.System = SystemDGLKE
	r4, err := Run(cfg4)
	if err != nil {
		t.Fatal(err)
	}
	remote := func(s netsim.Snapshot) float64 {
		return float64(s.RemoteBytes) / float64(s.LocalBytes+s.RemoteBytes)
	}
	f1, f4 := remote(r1.Traffic), remote(r4.Traffic)
	if f4 <= f1 {
		t.Errorf("remote fraction with 4 machines (%.3f) not above 1 machine (%.3f)", f4, f1)
	}
}

func TestCacheCapacityIncreasesHitRatio(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Epochs = 1
	cfg.EvalEvery = -1
	cfg.CacheCapacity = 10
	small, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CacheCapacity = 150
	large, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if large.HitRatio <= small.HitRatio {
		t.Errorf("hit ratio did not grow with capacity: %v (k=10) vs %v (k=150)",
			small.HitRatio, large.HitRatio)
	}
}

func TestHETKGNegativeCapacityRejected(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.CacheCapacity = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestDistMultTraining(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Model = model.DistMult{}
	cfg.Epochs = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("DistMult HET-KG: %v", err)
	}
	if res.Epochs[1].Loss >= res.Epochs[0].Loss {
		t.Errorf("DistMult loss did not decrease: %v → %v", res.Epochs[0].Loss, res.Epochs[1].Loss)
	}
}

// TestZeroCapacityCacheDegradesToDGLKE: on a graph of fewer than 20 ids the
// default capacity, 5% of the universe, rounds down to an empty hot table,
// which must neither hit nor beat DGL-KE's traffic.
func TestZeroCapacityCacheDegradesToDGLKE(t *testing.T) {
	g := dataset.MustGenerate(dataset.Config{
		Name: "fewids", NumEntity: 16, NumRel: 3, NumTriples: 200,
		EntityZipf: 0.9, RelationZipf: 1.0, Seed: 21,
	})
	cfg := testConfig(t, 2)
	cfg.Train, cfg.Valid, cfg.Filter = g, nil, kg.NewTripleSet(g.Triples)
	cfg.Epochs = 1
	cfg.CacheCapacity = 0
	if k := cfg.cacheCapacity(); k != 0 {
		t.Fatalf("default capacity over %d ids = %d, want 0", g.NumEntity+g.NumRel, k)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRatio != 0 {
		t.Errorf("zero-capacity cache hit ratio = %v", res.HitRatio)
	}
	base := cfg
	base.System = SystemDGLKE
	b, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	// Same pull volume modulo the (empty) refresh overhead.
	if res.Traffic.RemoteBytes < b.Traffic.RemoteBytes {
		t.Errorf("empty cache cannot beat no cache: %d vs %d",
			res.Traffic.RemoteBytes, b.Traffic.RemoteBytes)
	}
}

func TestEpochStatTotal(t *testing.T) {
	e := EpochStat{Comp: time.Second, Comm: 2 * time.Second}
	if e.Total() != 3*time.Second {
		t.Errorf("Total = %v, want 3s", e.Total())
	}
}
