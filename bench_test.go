package hetkg

// The bench harness: one macro-benchmark per table and figure of the paper
// (each runs the corresponding experiment end-to-end at tiny scale and
// reports simulated cluster time as custom metrics), plus micro-benchmarks
// of the hot paths (scoring, sampling, cache ops, partitioning, PS
// pull/push).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Full-size experiment sweeps are the `hetkg exp` verb's job:
//
//	go run ./cmd/hetkg exp -exp all -scale small

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"hetkg/internal/cache"
	"hetkg/internal/dataset"
	"hetkg/internal/eval"
	"hetkg/internal/kg"
	"hetkg/internal/model"
	"hetkg/internal/opt"
	"hetkg/internal/partition"
	"hetkg/internal/plan"
	"hetkg/internal/ps"
	"hetkg/internal/sampler"
	"hetkg/internal/span"
	"hetkg/internal/train"
	"hetkg/internal/vec"
)

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := plan.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	opts := plan.Options{Scale: dataset.Tiny, Seed: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(opts); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// Macro benches: every paper artifact.

func BenchmarkTable1CommFraction(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkFig2AccessSkew(b *testing.B)      { benchExperiment(b, "fig2") }
func BenchmarkTable3FB15k(b *testing.B)         { benchExperiment(b, "table3") }
func BenchmarkTable4WN18(b *testing.B)          { benchExperiment(b, "table4") }
func BenchmarkTable5Freebase(b *testing.B)      { benchExperiment(b, "table5") }
func BenchmarkFig5Convergence(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6Scalability(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7Breakdown(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8aCacheSize(b *testing.B)      { benchExperiment(b, "fig8a") }
func BenchmarkFig8bStaleness(b *testing.B)      { benchExperiment(b, "fig8b") }
func BenchmarkFig8cEntityRatio(b *testing.B)    { benchExperiment(b, "fig8c") }
func BenchmarkFig9StalenessCurves(b *testing.B) { benchExperiment(b, "fig9") }
func BenchmarkTable6CachePolicies(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkTable7Heterogeneity(b *testing.B) { benchExperiment(b, "table7") }

// Ablation benches (design choices called out in DESIGN.md).

func BenchmarkAblationPartition(b *testing.B)   { benchExperiment(b, "xablation-partition") }
func BenchmarkAblationNegSampling(b *testing.B) { benchExperiment(b, "xablation-negsampling") }
func BenchmarkAblationStrategy(b *testing.B)    { benchExperiment(b, "xablation-strategy") }
func BenchmarkAblationQuantize(b *testing.B)    { benchExperiment(b, "xablation-quantize") }
func BenchmarkAblationAdversarial(b *testing.B) { benchExperiment(b, "xablation-adversarial") }
func BenchmarkAblationBandwidth(b *testing.B)   { benchExperiment(b, "xablation-bandwidth") }
func BenchmarkAblationHardNegs(b *testing.B)    { benchExperiment(b, "xablation-hardnegs") }
func BenchmarkTheoryStaleness(b *testing.B)     { benchExperiment(b, "xtheory-staleness") }

// BenchmarkEpochPerSystem reports the simulated epoch time of each system
// on the same workload — the repository's headline comparison.
func BenchmarkEpochPerSystem(b *testing.B) {
	for _, sys := range Systems() {
		b.Run(string(sys), func(b *testing.B) {
			var comp, comm float64
			for i := 0; i < b.N; i++ {
				res, err := Run(RunConfig{
					Dataset:   "fb15k",
					Scale:     ScaleTiny,
					System:    sys,
					Dim:       64,
					BatchSize: 128,
					Epochs:    1,
					EvalEvery: -1,
					Seed:      42,
				})
				if err != nil {
					b.Fatal(err)
				}
				comp += res.Comp.Seconds()
				comm += res.Comm.Seconds()
			}
			b.ReportMetric(comp/float64(b.N)*1000, "comp-ms/epoch")
			b.ReportMetric(comm/float64(b.N)*1000, "comm-ms/epoch")
		})
	}
}

// Micro benches: the hot paths.

func benchScore(b *testing.B, m model.Model) {
	d := 64
	rng := rand.New(rand.NewSource(1))
	h := make([]float32, m.EntityDim(d))
	r := make([]float32, m.RelationDim(d))
	t := make([]float32, m.EntityDim(d))
	for _, v := range [][]float32{h, r, t} {
		for i := range v {
			v[i] = rng.Float32()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += m.Score(h, r, t)
	}
	_ = sink
}

func BenchmarkScoreTransE(b *testing.B)   { benchScore(b, model.TransE{Norm: 1}) }
func BenchmarkScoreDistMult(b *testing.B) { benchScore(b, model.DistMult{}) }
func BenchmarkScoreComplEx(b *testing.B)  { benchScore(b, model.ComplEx{}) }

func BenchmarkSamplerChunked(b *testing.B) {
	g := dataset.FB15kLike(dataset.Tiny, 1)
	smp, err := sampler.New(sampler.Config{
		BatchSize: 128, NegPerPos: 16, ChunkSize: 16, NumEntity: g.NumEntity,
	}, g, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smp.Next()
	}
}

func BenchmarkPrefetchAndFilter(b *testing.B) {
	g := dataset.FB15kLike(dataset.Tiny, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		smp, err := sampler.New(sampler.Config{
			BatchSize: 64, NegPerPos: 8, ChunkSize: 8, NumEntity: g.NumEntity,
		}, g, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		pre := cache.Prefetch(smp, 16)
		if _, err := cache.Filter(pre, cache.FilterConfig{
			Capacity: 64, EntityFraction: 0.25, Heterogeneity: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCachePolicies(b *testing.B) {
	g := dataset.FB15kLike(dataset.Tiny, 1)
	smp, _ := sampler.New(sampler.Config{
		BatchSize: 64, NegPerPos: 8, ChunkSize: 8, NumEntity: g.NumEntity,
	}, g, rand.New(rand.NewSource(1)))
	pre := cache.Prefetch(smp, 30)
	var stream []ps.Key
	for _, bt := range pre.Batches {
		ents, rels := bt.DistinctIDs()
		for _, e := range ents {
			stream = append(stream, ps.EntityKey(e))
		}
		for _, r := range rels {
			stream = append(stream, ps.RelationKey(r))
		}
	}
	for _, name := range []string{"fifo", "lru", "lfu"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, _ := cache.NewPolicy(name, 64)
				cache.ReplayHitRatio(p, stream)
			}
		})
	}
}

func BenchmarkPartitioner(b *testing.B) {
	g := dataset.FB15kLike(dataset.Tiny, 1)
	for _, name := range []string{"random", "metis"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, _ := partition.New(name, int64(i))
				if _, err := p.Partition(g, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPSPullPush(b *testing.B) {
	part := make([]int32, 1000)
	for i := range part {
		part[i] = int32(i % 4)
	}
	cluster, err := ps.NewCluster(ps.ClusterConfig{
		NumMachines:  4,
		EntityPart:   part,
		NumRelations: 20,
		EntityDim:    64,
		RelationDim:  64,
		NewOptimizer: func() opt.Optimizer { return opt.NewAdaGrad(0.1, 1e-10) },
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	client, err := ps.NewClient(0, cluster, ps.NewInProc(cluster), nil)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]ps.Key, 128)
	for i := range keys {
		keys[i] = ps.EntityKey(kg.EntityID(i * 7 % 1000))
	}
	grad := make([]float32, 64)
	grad[0] = 0.01
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := make(map[ps.Key][]float32, len(keys))
		if err := client.Pull(keys, rows); err != nil {
			b.Fatal(err)
		}
		if err := client.Push(map[ps.Key][]float32{keys[i%len(keys)]: grad}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDegrees deduplicates the parallelism settings worth comparing on
// this machine: serial, a mid point, and every core.
func benchDegrees() []int {
	degrees := []int{1, 4, runtime.NumCPU()}
	seen := make(map[int]bool)
	var out []int
	for _, p := range degrees {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// BenchmarkProcessBatch measures the worker's batch hot path — gather,
// sharded gradient compute, ordered merge, push — at serial and full
// parallelism, reporting ns per (positive, negative) pair and allocs/op, in
// two compute-bound shapes at d = 128: the paper's TransE-ℓ1 with batch 256
// and 64 negatives per positive, and the inproc-compute benchmark
// workload's ComplEx with batch 128, 32 negatives and chunks of 8.
func BenchmarkProcessBatch(b *testing.B) {
	g := dataset.FB15kLike(dataset.Tiny, 1)
	for _, s := range []struct {
		name               string
		model              model.Model
		batch, negs, chunk int
	}{
		{"transe", model.TransE{Norm: 1}, 256, 64, 16},
		{"complex", model.ComplEx{}, 128, 32, 8},
	} {
		for _, p := range benchDegrees() {
			b.Run(fmt.Sprintf("model=%s/parallelism=%d", s.name, p), func(b *testing.B) {
				bb, err := train.NewBatchBench(batchBenchConfig(g, s.model, s.batch, s.negs, s.chunk, p))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := bb.ProcessBatch(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bb.Pairs()), "ns/pair")
			})
		}
	}
}

// batchBenchConfig is the one-machine, one-epoch run at d = 128 whose first
// batch train.NewBatchBench replays.
func batchBenchConfig(g *kg.Graph, m model.Model, batch, negs, chunk, parallelism int) train.Config {
	return train.Config{
		RunConfig: RunConfig{
			Dim: 128, LR: 0.1, Epochs: 1, Machines: 1, Seed: 7, Parallelism: parallelism,
			BatchSize: batch, NegPerPos: negs, ChunkSize: chunk,
		},
		Train:        g,
		Model:        m,
		Loss:         model.LogisticLoss{},
		Partitioner:  &partition.MetisLike{Seed: 7},
		NewOptimizer: func() opt.Optimizer { return opt.NewAdaGrad(0.1, 1e-10) },
	}
}

// TestProcessBatchAllocs pins what one training step allocates in
// steady state, in inproc-compute's shape (ComplEx, d 128, batch 128, 32
// negatives in chunks of 8, one machine, parallelism 1): 2 (par.Shards'
// grid and par.For's closure), now that the step reaches its shard over
// an fp32 in-process link, which copies the shard's rows straight into the
// client's reused buffer. It was 6 while a second in-process path made a
// fresh reply buffer and three request/response envelopes per step, on a
// slot table with slot-indexed gradient buffers, the rows pulled into one
// reused slab and a shard whose rows are slabs, and 457 while every row
// went through a Go map and most got a fresh make.
func TestProcessBatchAllocs(t *testing.T) {
	bb, err := train.NewBatchBench(batchBenchConfig(dataset.FB15kLike(dataset.Tiny, 1), model.ComplEx{}, 128, 32, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := bb.ProcessBatch(); err != nil {
			t.Fatal(err)
		}
	}
	step() // scratch growth and the optimizer's first-touch state happen once
	if n := testing.AllocsPerRun(20, step); n > 2 {
		t.Errorf("%v allocs per training step, want <= 2", n)
	}
}

// BenchmarkProcessBatchSpans pins the span tracer's overhead guard against
// BenchmarkProcessBatch (the PR 1 baseline, which has no collector at all):
//
//	tracer=off     Config.Spans nil — every span call is a nil-check branch.
//	               Must match BenchmarkProcessBatch/model=transe/parallelism=1
//	               in ns/pair and allocs/op.
//	tracer=sampled every batch traced end to end (Every=1), the worst case;
//	               real runs trace 1/16 batches by default.
func BenchmarkProcessBatchSpans(b *testing.B) {
	base := batchBenchConfig(dataset.FB15kLike(dataset.Tiny, 1), model.TransE{Norm: 1}, 256, 64, 16, 1)
	run := func(b *testing.B, cfg train.Config) {
		bb, err := train.NewBatchBench(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bb.ProcessBatchTraced(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bb.Pairs()), "ns/pair")
	}
	b.Run("tracer=off", func(b *testing.B) { run(b, base) })
	b.Run("tracer=sampled", func(b *testing.B) {
		cfg := base
		cfg.Spans = span.NewCollector(span.CollectorConfig{Every: 1, Capacity: 1 << 16})
		run(b, cfg)
	})
}

// BenchmarkEvaluate measures parallel link-prediction ranking in the
// sampled-candidate protocol, reporting ns per (triple, side) ranking.
func BenchmarkEvaluate(b *testing.B) {
	g := dataset.FB15kLike(dataset.Tiny, 1)
	rng := rand.New(rand.NewSource(3))
	ents := vec.NewMatrix(g.NumEntity, 128)
	rels := vec.NewMatrix(g.NumRel, 128)
	for _, m := range []*vec.Matrix{ents, rels} {
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)
			for j := range row {
				row[j] = rng.Float32() - 0.5
			}
		}
	}
	test := g.Triples
	if len(test) > 256 {
		test = test[:256]
	}
	for _, p := range benchDegrees() {
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) {
			cfg := eval.Config{
				Model:         model.TransE{Norm: 1},
				Entities:      ents,
				Relations:     rels,
				NumCandidates: 200,
				Seed:          5,
				Parallelism:   p,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.Evaluate(cfg, test); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*len(test)), "ns/ranking")
		})
	}
}

func BenchmarkDatasetGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dataset.FB15kLike(dataset.Tiny, int64(i))
	}
}
