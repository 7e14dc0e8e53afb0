package plan

import (
	"fmt"
	"math/rand"
	"sort"

	"hetkg/internal/cache"
	"hetkg/internal/dataset"
	"hetkg/internal/ps"
	"hetkg/internal/sampler"
	"hetkg/internal/train"
)

// Fig. 2 (access-frequency micro-benchmark), Fig. 8(a/b/c) (cache size,
// staleness, entity-ratio sweeps), Fig. 9 (staleness vs convergence),
// Table VI (policy hit ratios), and Table VII (heterogeneity ablation).
// Fig. 2, Fig. 8(c) and Table VI train nothing: they replay sampled access
// streams, so they are plain Go rather than plans.

func init() {
	register(Experiment{
		ID:    "fig2",
		Title: "Embedding access-frequency skew per dataset  [paper Fig. 2]",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "fig8a",
		Title: "Impact of cache size: hit ratio and MRR  [paper Fig. 8(a)]",
		Run:   runFig8a,
	})
	register(Experiment{
		ID:    "fig8b",
		Title: "Impact of bounded staleness P: local service ratio and MRR  [paper Fig. 8(b)]",
		Run:   runFig8b,
	})
	register(Experiment{
		ID:    "fig8c",
		Title: "Impact of entity ratio in the hot-embedding table  [paper Fig. 8(c)]",
		Run:   runFig8c,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Epoch-MRR curves under staleness 1 vs 128  [paper Fig. 9]",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "table6",
		Title: "Cache hit ratio: FIFO / LRU / importance(LFU) / HET-KG  [paper Table VI]",
		Run:   runTable6,
	})
	register(Experiment{
		ID:    "table7",
		Title: "Node-heterogeneity quota: HET-KG vs HET-KG-N  [paper Table VII]",
		Run:   runTable7,
	})
}

// accessCensus samples numBatches mini-batches and returns the per-batch
// deduplicated access stream plus the prefetch census.
func accessCensus(ds string, scale dataset.Scale, seed int64, numBatches int) (*cache.Prefetched, []ps.Key, error) {
	g, ok := dataset.ByName(ds, scale, seed)
	if !ok {
		return nil, nil, fmt.Errorf("unknown dataset %q", ds)
	}
	smp, err := sampler.New(sampler.Config{
		BatchSize: 64, NegPerPos: 8, ChunkSize: 8, NumEntity: g.NumEntity,
	}, g, rand.New(rand.NewSource(seed+3)))
	if err != nil {
		return nil, nil, err
	}
	pre := cache.Prefetch(smp, numBatches)
	var stream []ps.Key
	for _, b := range pre.Batches {
		ents, rels := b.DistinctIDs()
		for _, e := range ents {
			stream = append(stream, ps.EntityKey(e))
		}
		for _, r := range rels {
			stream = append(stream, ps.RelationKey(r))
		}
	}
	return pre, stream, nil
}

func runFig2(o Options) (*Table, error) {
	t := &Table{
		Title: "Access share of the hottest entities/relations under uniform batch sampling",
		Header: []string{"Dataset", "Top1% ent share", "Top1% rel share",
			"Mean acc/entity", "Mean acc/relation"},
	}
	for _, ds := range dataset.Names() {
		pre, _, err := accessCensus(ds, o.Scale, o.Seed, censusBatches(o))
		if err != nil {
			return nil, fmt.Errorf("fig2 (%s): %w", ds, err)
		}
		entShare := topFreqShare(pre.EntityFreq)
		relShare := topFreqShare(pre.RelationFreq)
		t.AddRow(ds, Pct(entShare, 1), Pct(relShare, 1),
			Fmt("%.1f", meanFreq(pre.EntityFreq)), Fmt("%.1f", meanFreq(pre.RelationFreq)))
	}
	t.Note("paper shape: access is heavily skewed; relations are accessed far more often per id than entities")
	t.Note("paper FB15k reference: top 1%% of entities ≈6%% of usage, top 1%% of relations ≈36%%")
	return t, nil
}

func runFig8a(o Options) (*Table, error) {
	t := &Table{
		Title:  "HET-KG-C on freebase86m-like: cache size sweep",
		Header: []string{"CacheSize(%ids)", "HitRatio", "MRR", "Comm"},
	}
	t.Note("paper shape: hit ratio rises with cache size; MRR stays flat (stale fraction remains small)")
	return t, o.sweep(Plan{
		Base:  train.RunConfig{Dataset: "freebase86m", System: train.SystemHETKGC, Epochs: 2},
		Sweep: []SweepAxis{axis("cacheBudget", 0.005, 0.01, 0.02, 0.05, 0.1, 0.2)},
	}, func(r outcome) {
		res := r.Result
		t.AddRow(fmt.Sprintf("%.1f%%", 100*r.Spec.CacheBudget), res.HitRatio, res.Final.MRR, Dur(res.Comm))
	})
}

func runFig8b(o Options) (*Table, error) {
	t := &Table{
		Title:  "HET-KG-C on freebase86m-like: staleness bound P sweep",
		Header: []string{"P", "LocalServiceRatio", "HitRatio", "MRR"},
	}
	t.Note("paper shape: hit ratio rises with P (stale rows count as refresh misses); MRR degrades past the knee")
	return t, o.sweep(Plan{
		Base:  train.RunConfig{Dataset: "freebase86m", System: train.SystemHETKGC, Epochs: 2},
		Sweep: []SweepAxis{axis("staleness", 1, 2, 4, 8, 16, 32, 64, 128)},
	}, func(r outcome) {
		res := r.Result
		t.AddRow(r.Spec.CacheSyncEvery, res.LocalServiceRatio(), res.HitRatio, res.Final.MRR)
	})
}

func runFig8c(o Options) (*Table, error) {
	t := &Table{
		Title:  "Hit ratio vs entity share of the hot-embedding table (freebase86m-like)",
		Header: []string{"EntityRatio", "HitRatio"},
	}
	pre, stream, err := accessCensus("freebase86m", o.Scale, o.Seed, censusBatches(o))
	if err != nil {
		return nil, fmt.Errorf("fig8c: %w", err)
	}
	g, _ := dataset.ByName("freebase86m", o.Scale, o.Seed)
	capacity := (g.NumEntity + g.NumRel) / 20
	for _, ratio := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		keys, err := cache.Filter(pre, cache.FilterConfig{
			Capacity:       capacity,
			EntityFraction: ratio,
			Heterogeneity:  true,
		})
		if err != nil {
			return nil, err
		}
		table := make(map[ps.Key]struct{}, len(keys))
		for _, k := range keys {
			table[k] = struct{}{}
		}
		t.AddRow(fmt.Sprintf("%.0f%%", 100*ratio), cache.StaticHitRatio(table, stream))
	}
	t.Note("paper shape: hit ratio peaks at a small entity share (paper: 25%%) because relation rows are far hotter")
	return t, nil
}

func runFig9(o Options) (*Table, error) {
	t := &Table{
		Title:  "Epoch-MRR under staleness P=1 vs P=128 (HET-KG-C, freebase86m-like)",
		Header: []string{"P", "Epoch", "MRR", "Loss"},
	}
	t.Note("paper shape: with consistency (P=1) MRR converges higher; relaxing to P=128 costs final quality")
	return t, o.sweep(Plan{
		// CPS: the periodic refresh is the *only* mechanism bounding
		// staleness (DPS's table rebuild would mask the P knob).
		Base:  train.RunConfig{Dataset: "freebase86m", System: train.SystemHETKGC, Epochs: fig5Epochs(o)},
		Sweep: []SweepAxis{axis("staleness", 1, 128)},
	}, func(r outcome) {
		for _, e := range r.Result.Epochs {
			t.AddRow(r.Spec.CacheSyncEvery, e.Epoch, e.MRR, Fmt("%.4f", e.Loss))
		}
	})
}

func runTable6(o Options) (*Table, error) {
	t := &Table{
		Title:  "Cache hit ratio of simple policies vs HET-KG's prefetch-filter selection",
		Header: []string{"Dataset", "FIFO", "LRU", "Importance(LFU)", "HET-KG", "Belady(bound)"},
	}
	for _, ds := range dataset.Names() {
		pre, stream, err := accessCensus(ds, o.Scale, o.Seed, censusBatches(o))
		if err != nil {
			return nil, fmt.Errorf("table6 (%s): %w", ds, err)
		}
		g, _ := dataset.ByName(ds, o.Scale, o.Seed)
		capacity := (g.NumEntity + g.NumRel) / 20
		if capacity < 4 {
			capacity = 4
		}
		fifo := cache.ReplayHitRatio(cache.NewFIFO(capacity), stream)
		lru := cache.ReplayHitRatio(cache.NewLRU(capacity), stream)
		lfu := cache.ReplayHitRatio(cache.NewLFU(capacity), stream)
		keys, err := cache.Filter(pre, cache.FilterConfig{
			Capacity: capacity, EntityFraction: 0.25, Heterogeneity: true,
		})
		if err != nil {
			return nil, err
		}
		table := make(map[ps.Key]struct{}, len(keys))
		for _, k := range keys {
			table[k] = struct{}{}
		}
		het := cache.StaticHitRatio(table, stream)
		belady := cache.Belady(capacity, stream)
		t.AddRow(ds, Pct(fifo, 1), Pct(lru, 1), Pct(lfu, 1), Pct(het, 1), Pct(belady, 1))
	}
	t.Note("paper shape (FB15k): FIFO 7.4%% < LRU 11.7%% < importance 15.2%% < HET-KG 25.2%%")
	t.Note("Belady's MIN is the offline optimum (extra analysis column): HET-KG's lookahead closes most of the gap to it")
	return t, nil
}

func runTable7(o Options) (*Table, error) {
	t := &Table{
		Title:  "HET-KG (25/75 quota) vs HET-KG-N (frequency only)",
		Header: []string{"Dataset", "Variant", "MRR", "Hits@1", "Hits@10", "Time(s)", "HitRatio"},
	}
	t.Note("paper shape: HET-KG-N runs slightly faster (hotter cache) but converges to lower accuracy")
	return t, o.sweep(Plan{
		Base:  train.RunConfig{System: train.SystemHETKGC},
		Sweep: []SweepAxis{axis(keyDataset, "fb15k", "wn18"), axis("noHeterogeneity", false, true)},
	}, func(r outcome) {
		res, name := r.Result, "HET-KG"
		if r.Spec.NoHeterogeneity {
			name = "HET-KG-N"
		}
		t.AddRow(r.Spec.Dataset, name, res.Final.MRR, res.Final.Hits[1], res.Final.Hits[10],
			Fmt("%.2f", res.Total().Seconds()).Wall(), res.HitRatio)
	})
}

// censusBatches scales the micro-benchmark stream length.
func censusBatches(o Options) int {
	if o.Scale == dataset.Tiny {
		return 40
	}
	return 150
}

// touched lists the nonzero counts of a prefetch census and their sum.
func touched(freq []int32) (counts []int, total int) {
	for _, c := range freq {
		if c > 0 {
			counts = append(counts, int(c))
			total += int(c)
		}
	}
	return counts, total
}

// topFreqShare is the share of total accesses going to the top 1% of ids.
func topFreqShare(freq []int32) float64 {
	counts, total := touched(freq)
	if total == 0 {
		return 0
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	k := len(counts) / 100
	if k < 1 {
		k = 1
	}
	top := 0
	for i := 0; i < k && i < len(counts); i++ {
		top += counts[i]
	}
	return float64(top) / float64(total)
}

// meanFreq is the mean access count of a touched id.
func meanFreq(freq []int32) float64 {
	counts, total := touched(freq)
	if len(counts) == 0 {
		return 0
	}
	return float64(total) / float64(len(counts))
}
