package plan

import (
	"cmp"
	"fmt"
	"math/rand"

	"hetkg/internal/dataset"
	"hetkg/internal/netsim"
	"hetkg/internal/partition"
	"hetkg/internal/sampler"
	"hetkg/internal/train"
)

// Ablations beyond the paper's figures, for the design choices DESIGN.md
// calls out: the METIS-like partitioner vs random placement, and chunked vs
// independent negative sampling (the §V complexity claim).

func init() {
	register(Experiment{
		ID:    "xablation-partition",
		Title: "Ablation: METIS-like vs random partitioning (remote traffic, comm time)",
		Run:   runAblationPartition,
	})
	register(Experiment{
		ID:    "xablation-negsampling",
		Title: "Ablation: chunked vs independent negative sampling (distinct rows per batch)",
		Run:   runAblationNegSampling,
	})
	register(Experiment{
		ID:    "xablation-quantize",
		Title: "Extension: 8-bit wire quantization stacked on HET-KG (bytes, time, MRR)",
		Run:   runAblationQuantize,
	})
	register(Experiment{
		ID:    "xablation-adversarial",
		Title: "Extension: self-adversarial negative weighting vs uniform (MRR)",
		Run:   runAblationAdversarial,
	})
	register(Experiment{
		ID:    "xablation-bandwidth",
		Title: "Sensitivity: HET-KG's advantage over DGL-KE vs network bandwidth (§II claim)",
		Run:   runAblationBandwidth,
	})
	register(Experiment{
		ID:    "xablation-hardnegs",
		Title: "Extension: degree-weighted (deg^0.75) vs uniform negative corruption",
		Run:   runAblationHardNegs,
	})
	register(Experiment{
		ID:    "xtheory-staleness",
		Title: "§IV-C check: bounded staleness converges; unbounded staleness degrades",
		Run:   runTheoryStaleness,
	})
	register(Experiment{
		ID:    "xablation-strategy",
		Title: "Ablation: CPS vs DPS hit ratio across cache sizes",
		Run:   runAblationStrategy,
	})
}

func runAblationPartition(o Options) (*Table, error) {
	t := &Table{
		Title:  "DGL-KE on fb15k-like, 4 machines: partitioner effect",
		Header: []string{"Partitioner", "EdgeCutFrac", "RemoteBytes", "Comm", "Total"},
	}
	t.Note("expected: the min-cut partitioner lowers the edge cut and with it remote pull volume")
	g, _ := dataset.ByName("fb15k", o.Scale, o.Seed)
	names := []string{"metis", "ldg", "random"}
	cut := map[string]float64{}
	for _, name := range names {
		p, err := partition.New(name, o.Seed)
		if err != nil {
			return nil, err
		}
		pr, err := p.Partition(g, 4)
		if err != nil {
			return nil, err
		}
		cut[name] = pr.CutFraction(g)
	}
	return t, o.sweep(Plan{
		Base:  train.RunConfig{Dataset: "fb15k", System: train.SystemDGLKE, Epochs: 1, EvalEvery: -1},
		Sweep: []SweepAxis{axis("partitioner", names...)},
	}, func(r outcome) {
		res := r.Result
		t.AddRow(r.Spec.PartitionerName, cut[r.Spec.PartitionerName], Fmt("%.0f", float64(res.Traffic.RemoteBytes)),
			Dur(res.Comm), Dur(res.Total()).Wall())
	})
}

func runAblationNegSampling(o Options) (*Table, error) {
	t := &Table{
		Title:  "Distinct embedding rows pulled per batch: independent vs chunked corruption",
		Header: []string{"Mode", "b_p", "b_n", "b_c", "AvgDistinctRows"},
	}
	g, _ := dataset.ByName("fb15k", o.Scale, o.Seed)
	cases := []struct {
		name  string
		chunk int
	}{
		{"independent", 1},
		{"chunked", 16},
	}
	for _, c := range cases {
		smp, err := sampler.New(sampler.Config{
			BatchSize: 128, NegPerPos: 16, ChunkSize: c.chunk, NumEntity: g.NumEntity,
		}, g, rand.New(rand.NewSource(o.Seed)))
		if err != nil {
			return nil, err
		}
		totalRows := 0
		const batches = 30
		for i := 0; i < batches; i++ {
			b := smp.Next()
			ents, rels := b.DistinctIDs()
			totalRows += len(ents) + len(rels)
		}
		t.AddRow(c.name, 128, 16, c.chunk, Fmt("%.1f", float64(totalRows)/batches))
	}
	t.Note("§V: chunking reduces sampling/pull complexity from O(b_p·d·(b_n+1)) to O(b_p·d + b_p·k·d/b_c)")
	return t, nil
}

func runAblationStrategy(o Options) (*Table, error) {
	t := &Table{
		Title:  "CPS vs DPS hit ratio across cache sizes (fb15k-like)",
		Header: []string{"CacheSize(%ids)", "CPS hit", "DPS hit"},
	}
	t.Note("§IV-B: DPS tracks the short-term access pattern, matching or beating CPS under tight capacity")
	var row []any // the cache size's label, then CPS's and DPS's hit ratio
	return t, o.sweep(Plan{
		Base:  train.RunConfig{Dataset: "fb15k", Epochs: 2, EvalEvery: -1},
		Sweep: []SweepAxis{axis("cacheBudget", 0.01, 0.05, 0.15), axis("system", "hetkg-c", "hetkg-d")},
	}, func(r outcome) {
		if r.Spec.System == train.SystemHETKGC {
			row = []any{fmt.Sprintf("%.0f%%", 100*r.Spec.CacheBudget)}
		}
		if row = append(row, Pct(r.Result.HitRatio, 1)); len(row) == 3 {
			t.AddRow(row...)
		}
	})
}

func runAblationQuantize(o Options) (*Table, error) {
	t := &Table{
		Title:  "HET-KG-C on fb15k-like, 4 machines: float32 vs int8 payloads",
		Header: []string{"Wire", "RemoteBytes", "Comm", "MRR"},
	}
	t.Note("expected: ~4x fewer payload bytes; quantization noise costs little MRR at 8 bits")
	return t, o.sweep(Plan{
		Base: train.RunConfig{Dataset: "fb15k", System: train.SystemHETKGC, Epochs: 2},
		// No codec is the plain float32 transport, without the codec layer.
		Sweep: []SweepAxis{axis("codec", "", "int8")},
	}, func(r outcome) {
		res, wire := r.Result, cmp.Or(r.Spec.Codec, "float32")
		t.AddRow(wire, Fmt("%.0f", float64(res.Traffic.RemoteBytes)), Dur(res.Comm), res.Final.MRR)
	})
}

func runAblationAdversarial(o Options) (*Table, error) {
	t := &Table{
		Title:  "HET-KG-D on fb15k-like: negative-sample weighting",
		Header: []string{"Weighting", "MRR", "Hits@10", "FinalLoss"},
	}
	t.Note("extension beyond the paper: focusing gradient mass on hard negatives (RotatE-style)")
	return t, o.sweep(Plan{
		Base:  train.RunConfig{Dataset: "fb15k", System: train.SystemHETKGD, Epochs: 3},
		Sweep: []SweepAxis{axis("adversarial", 0.0, 1.0)},
	}, func(r outcome) {
		name := "uniform"
		if r.Spec.AdversarialTemp > 0 {
			name = "self-adversarial(α=1)"
		}
		t.AddRow(name, r.Result.Final.MRR, r.Result.Final.Hits[10], Fmt("%.4f", lastLoss(r.Result)))
	})
}

// runTheoryStaleness checks the convergence analysis of §IV-C empirically:
// with the staleness bound P in force, partial-stale training converges like
// the synchronous baseline; with the bound removed (no refresh, ever),
// cached replicas drift without limit and final quality suffers. This is
// the empirical counterpart of the bounded-delay assumption (4) in the
// paper's proof sketch.
func runTheoryStaleness(o Options) (*Table, error) {
	t := &Table{
		Title:  "HET-KG-C on fb15k-like: bounded (P=8) vs unbounded staleness",
		Header: []string{"Staleness", "Epoch", "Loss", "MRR"},
	}
	t.Note("§IV-C: with T > O(K²) iterations and staleness bounded by K, convergence matches synchronous training;")
	t.Note("removing the bound violates assumption (4) of the proof sketch and the gap shows up in loss and MRR")
	return t, o.sweep(Plan{
		Base:  train.RunConfig{Dataset: "fb15k", System: train.SystemHETKGC, Epochs: fig5Epochs(o)},
		Sweep: []SweepAxis{axis("staleness", 8, -1)}, // -1: unbounded
	}, func(r outcome) {
		name := "unbounded"
		if p := r.Spec.CacheSyncEvery; p > 0 {
			name = fmt.Sprintf("bounded(P=%d)", p)
		}
		for _, e := range r.Result.Epochs {
			t.AddRow(name, e.Epoch, Fmt("%.4f", e.Loss), e.MRR)
		}
	})
}

// runAblationBandwidth sweeps the inter-machine bandwidth and compares
// DGL-KE and HET-KG epoch time. §II argues communication cost "will become
// expensive ... especially in a low bandwidth network environment" — so the
// cache's relative advantage should grow as the link slows.
func runAblationBandwidth(o Options) (*Table, error) {
	t := &Table{
		Title:  "Epoch time vs link bandwidth (TransE, freebase86m-like, 4 machines)",
		Header: []string{"Bandwidth", "DGL-KE comm", "HET-KG-C comm", "Comm saving"},
	}
	t.Note("§II: the cache's byte saving is a fixed fraction; its absolute time value grows as the link slows")
	// The cost model has no plan key, so the bandwidth axis is a Go loop
	// over the executor.
	for _, mbps := range []float64{100, 1000, 10000} {
		cm := netsim.Default1Gbps()
		cm.RemoteBandwidthBps = mbps * 1e6 / 8
		eo := o
		eo.id = fmt.Sprintf("%s/%.0fMbps", o.id, mbps)
		eo.configure = func(rc *train.RunConfig) { rc.CostModel = cm }
		// Compare the communication component only: it is computed
		// deterministically from metered bytes, so the comparison is free
		// of wall-clock jitter in the measured computation.
		var comms []float64
		err := eo.sweep(Plan{Base: commSpec(o, ""), Sweep: []SweepAxis{axis("system", "dglke", "hetkg-c")}}, func(r outcome) {
			comms = append(comms, r.Result.Comm.Seconds())
		})
		if err != nil {
			return nil, err
		}
		saving := 0.0
		if comms[0] > 0 {
			saving = (comms[0] - comms[1]) / comms[0]
		}
		t.AddRow(fmt.Sprintf("%.0f Mbps", mbps), Fmt("%.3fs", comms[0]), Fmt("%.3fs", comms[1]),
			Cell{Text: fmt.Sprintf("%+.1f%%", 100*saving), Value: saving})
	}
	return t, nil
}

func runAblationHardNegs(o Options) (*Table, error) {
	t := &Table{
		Title:  "HET-KG-C on fb15k-like: negative corruption distribution",
		Header: []string{"Corruption", "MRR", "Hits@10", "FinalLoss"},
	}
	t.Note("extension: corrupting with high-degree entities yields harder negatives on skewed graphs")
	return t, o.sweep(Plan{
		Base:  train.RunConfig{Dataset: "fb15k", System: train.SystemHETKGC, Epochs: 3},
		Sweep: []SweepAxis{axis("degreeNegatives", false, true)},
	}, func(r outcome) {
		name := "uniform"
		if r.Spec.DegreeWeightedNegatives {
			name = "degree^0.75"
		}
		t.AddRow(name, r.Result.Final.MRR, r.Result.Final.Hits[10], Fmt("%.4f", lastLoss(r.Result)))
	})
}
