package cache

import (
	"math"
	"math/rand"
	"testing"

	"hetkg/internal/dataset"
	"hetkg/internal/kg"
	"hetkg/internal/metrics"
	"hetkg/internal/opt"
	"hetkg/internal/ps"
	"hetkg/internal/sampler"
)

// fixture builds a 1-machine cluster with a client over a small graph.
func fixture(t testing.TB, g *kg.Graph) (*ps.Cluster, *ps.Client) {
	t.Helper()
	part := make([]int32, g.NumEntity)
	c, err := ps.NewCluster(ps.ClusterConfig{
		NumMachines:  1,
		EntityPart:   part,
		NumRelations: g.NumRel,
		EntityDim:    4,
		RelationDim:  4,
		NewOptimizer: func() opt.Optimizer { return &opt.SGD{LR: 0.1} },
		Seed:         1,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cl, err := ps.NewClient(0, c, ps.NewInProc(c), nil)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return c, cl
}

func smallGraph(t testing.TB) *kg.Graph {
	t.Helper()
	return dataset.MustGenerate(dataset.Config{
		Name: "cachetest", NumEntity: 100, NumRel: 8, NumTriples: 800,
		EntityZipf: 1.0, RelationZipf: 1.0, Seed: 3,
	})
}

func newTestSampler(t *testing.T, g *kg.Graph, seed int64) *sampler.Sampler {
	t.Helper()
	s, err := sampler.New(sampler.Config{
		BatchSize: 16, NegPerPos: 4, ChunkSize: 4, NumEntity: g.NumEntity,
	}, g, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("sampler.New: %v", err)
	}
	return s
}

func TestPrefetchCensus(t *testing.T) {
	g := smallGraph(t)
	s := newTestSampler(t, g, 1)
	p := Prefetch(s, 5)
	if len(p.Batches) != 5 {
		t.Fatalf("prefetched %d batches, want 5", len(p.Batches))
	}
	// Recount manually and compare.
	entWant := map[kg.EntityID]int{}
	relWant := map[kg.RelationID]int{}
	for _, b := range p.Batches {
		for i, pos := range b.Pos {
			entWant[pos.Head]++
			entWant[pos.Tail]++
			relWant[pos.Relation]++
			for _, e := range b.Neg[i].Entities {
				entWant[e]++
			}
		}
	}
	for e, w := range entWant {
		if int(p.EntityFreq[e]) != w {
			t.Errorf("EntityFreq[%d] = %d, want %d", e, p.EntityFreq[e], w)
		}
	}
	for r, w := range relWant {
		if int(p.RelationFreq[r]) != w {
			t.Errorf("RelationFreq[%d] = %d, want %d", r, p.RelationFreq[r], w)
		}
	}
}

func TestFilterCapacityAndQuota(t *testing.T) {
	p := &Prefetched{
		EntityFreq:   []int32{100, 90, 80, 70, 60},
		RelationFreq: []int32{500, 400, 300, 200},
	}
	keys, err := Filter(p, FilterConfig{Capacity: 4, EntityFraction: 0.25, Heterogeneity: true})
	if err != nil {
		t.Fatalf("Filter: %v", err)
	}
	if len(keys) != 4 {
		t.Fatalf("selected %d keys, want 4", len(keys))
	}
	ents, rels := 0, 0
	for _, k := range keys {
		if k.IsRelation() {
			rels++
		} else {
			ents++
		}
	}
	if ents != 1 || rels != 3 {
		t.Errorf("quota split = %d entities / %d relations, want 1/3", ents, rels)
	}
	// The selected entity must be the hottest one.
	if keys[0] != ps.EntityKey(0) {
		t.Errorf("hottest entity not selected first: %v", keys[0])
	}
}

func TestFilterWithoutHeterogeneityPrefersRelations(t *testing.T) {
	// Relations are hotter; without the quota they crowd out entities —
	// the HET-KG-N behavior of Table VII.
	p := &Prefetched{
		EntityFreq:   []int32{10, 9},
		RelationFreq: []int32{100, 90, 80},
	}
	keys, err := Filter(p, FilterConfig{Capacity: 3, Heterogeneity: false})
	if err != nil {
		t.Fatalf("Filter: %v", err)
	}
	for _, k := range keys {
		if !k.IsRelation() {
			t.Errorf("frequency-only filter admitted entity %v over hotter relations", k)
		}
	}
}

func TestFilterShortfallSpillsToOtherPool(t *testing.T) {
	// WN18-like: only 2 relations but 75% relation quota on capacity 8 —
	// the unused relation slots must go to entities.
	p := &Prefetched{
		EntityFreq:   []int32{9, 8, 7, 6, 5, 4, 3, 2, 1},
		RelationFreq: []int32{100, 90},
	}
	keys, err := Filter(p, FilterConfig{Capacity: 8, EntityFraction: 0.25, Heterogeneity: true})
	if err != nil {
		t.Fatalf("Filter: %v", err)
	}
	if len(keys) != 8 {
		t.Fatalf("selected %d keys, want 8 (capacity must not be wasted)", len(keys))
	}
	rels := 0
	for _, k := range keys {
		if k.IsRelation() {
			rels++
		}
	}
	if rels != 2 {
		t.Errorf("got %d relations, want all 2", rels)
	}
}

func TestFilterTinyUniverse(t *testing.T) {
	// Fewer ids than capacity: everything is selected, nothing repeats.
	p := &Prefetched{
		EntityFreq:   []int32{2},
		RelationFreq: []int32{3},
	}
	keys, err := Filter(p, FilterConfig{Capacity: 100, EntityFraction: 0.25, Heterogeneity: true})
	if err != nil {
		t.Fatalf("Filter: %v", err)
	}
	if len(keys) != 2 {
		t.Errorf("selected %d keys, want 2", len(keys))
	}
}

func TestFilterValidation(t *testing.T) {
	p := &Prefetched{}
	if _, err := Filter(p, FilterConfig{Capacity: -1}); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := Filter(p, FilterConfig{Capacity: 1, EntityFraction: 2}); err == nil {
		t.Error("EntityFraction > 1 accepted")
	}
}

func TestFilterDeterministic(t *testing.T) {
	g := smallGraph(t)
	pa := Prefetch(newTestSampler(t, g, 7), 10)
	pb := Prefetch(newTestSampler(t, g, 7), 10)
	cfg := FilterConfig{Capacity: 20, EntityFraction: 0.25, Heterogeneity: true}
	ka, _ := Filter(pa, cfg)
	kb, _ := Filter(pb, cfg)
	if len(ka) != len(kb) {
		t.Fatal("nondeterministic selection size")
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("selection differs at %d: %v vs %v", i, ka[i], kb[i])
		}
	}
}

func TestHotCacheBuildGetUpdateRefresh(t *testing.T) {
	g := smallGraph(t)
	_, cl := fixture(t, g)
	hc, err := New(cl, &opt.SGD{LR: 0.1}, 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	keys := []ps.Key{ps.EntityKey(0), ps.RelationKey(0)}
	if err := hc.Build(keys, 0); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if hc.Len() != 2 {
		t.Fatalf("Len = %d, want 2", hc.Len())
	}
	// Cached value must equal the PS value.
	psRows := make(map[ps.Key][]float32)
	if err := cl.Pull(keys, psRows); err != nil {
		t.Fatal(err)
	}
	row, ok := hc.Get(ps.EntityKey(0), 0)
	if !ok {
		t.Fatal("cached key missed")
	}
	for i := range row {
		if row[i] != psRows[ps.EntityKey(0)][i] {
			t.Fatal("cached value differs from PS value after Build")
		}
	}
	// Miss on an uncached key.
	if _, ok := hc.Get(ps.EntityKey(50), 0); ok {
		t.Error("uncached key hit")
	}
	if got := hc.HitRatio(); got != 0.5 {
		t.Errorf("HitRatio = %v, want 0.5", got)
	}
	// Update mutates the local copy only.
	grad := []float32{1, 0, 0, 0}
	before := row[0]
	hc.Update(ps.EntityKey(0), grad)
	after, _ := hc.ServeStale(ps.EntityKey(0), 0, 0)
	if after[0] != before-0.1 {
		t.Errorf("local update: %v, want %v", after[0], before-0.1)
	}
	psRows2 := make(map[ps.Key][]float32)
	_ = cl.Pull(keys, psRows2)
	if psRows2[ps.EntityKey(0)][0] != psRows[ps.EntityKey(0)][0] {
		t.Error("cache Update leaked to the parameter server")
	}
	// Refreshing the row (a fresh pull offered back) restores the PS
	// value: the local divergence is erased.
	hc.Offer(ps.EntityKey(0), psRows2[ps.EntityKey(0)], 1)
	fresh, _ := hc.ServeStale(ps.EntityKey(0), 1, 0)
	if fresh[0] != psRows[ps.EntityKey(0)][0] {
		t.Error("refresh did not restore the PS value")
	}
}

func TestHotCacheUpdateUnknownKeyIsNoop(t *testing.T) {
	g := smallGraph(t)
	_, cl := fixture(t, g)
	hc, _ := New(cl, &opt.SGD{LR: 0.1}, 0)
	hc.Update(ps.EntityKey(99), []float32{1, 1, 1, 1}) // must not panic
}

// TestHotCacheDropsGradientsItsShardDrops holds the replica to its shard
// under a diverging push: a gradient row holding a NaN or an infinity is
// dropped by the shard, so the cached copy must drop it too, or it would
// serve a value its shard never held for up to P iterations.
func TestHotCacheDropsGradientsItsShardDrops(t *testing.T) {
	g := smallGraph(t)
	_, cl := fixture(t, g)
	hc, _ := New(cl, &opt.SGD{LR: 0.1}, 4)
	k := ps.EntityKey(0)
	if err := hc.Build([]ps.Key{k}, 0); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(-1))} {
		grad := []float32{1, bad, 0, 0}
		hc.Update(k, grad)
		if err := cl.Push(map[ps.Key][]float32{k: grad}); err != nil {
			t.Fatal(err)
		}
		shard := make(map[ps.Key][]float32)
		if err := cl.Pull([]ps.Key{k}, shard); err != nil {
			t.Fatal(err)
		}
		cached, _ := hc.ServeStale(k, 0, 0)
		for i := range cached {
			if math.Float32bits(cached[i]) != math.Float32bits(shard[k][i]) {
				t.Fatalf("gradient with %v: cached[%d] = %v, shard %v", bad, i, cached[i], shard[k][i])
			}
		}
	}
}

func TestPerRowStalenessBound(t *testing.T) {
	g := smallGraph(t)
	_, cl := fixture(t, g)
	hc, _ := New(cl, &opt.SGD{LR: 0.1}, 4) // P = 4
	k := ps.EntityKey(0)
	if err := hc.Build([]ps.Key{k}, 0); err != nil {
		t.Fatal(err)
	}
	// Fresh for iterations 0..3, stale from iteration 4.
	for it := 0; it < 4; it++ {
		if _, ok := hc.Get(k, it); !ok {
			t.Fatalf("iteration %d: fresh row missed", it)
		}
	}
	if _, ok := hc.Get(k, 4); ok {
		t.Fatal("row older than P served as a hit")
	}
	// Re-offering a fresh value resets the clock.
	fresh := make(map[ps.Key][]float32)
	if err := cl.Pull([]ps.Key{k}, fresh); err != nil {
		t.Fatal(err)
	}
	hc.Offer(k, fresh[k], 4)
	for it := 4; it < 8; it++ {
		if _, ok := hc.Get(k, it); !ok {
			t.Fatalf("iteration %d after Offer: missed", it)
		}
	}
	if _, ok := hc.Get(k, 8); ok {
		t.Fatal("staleness clock not re-armed after Offer")
	}
	// P = 0: unbounded, never stale.
	hc0, _ := New(cl, &opt.SGD{LR: 0.1}, 0)
	_ = hc0.Build([]ps.Key{k}, 0)
	if _, ok := hc0.Get(k, 1000000); !ok {
		t.Error("unbounded cache expired a row")
	}
	// Offer for a key outside the table is ignored.
	hc0.Offer(ps.EntityKey(99), fresh[k], 0)
	if hc0.Len() != 1 {
		t.Error("Offer admitted a non-hot key")
	}
}

// TestOfferCopiesRow holds Offer to copying the pulled row: a worker pulls
// every batch into the same slab, so a cache that adopted the caller's
// slice would see its replica overwritten by the next batch's pull.
func TestOfferCopiesRow(t *testing.T) {
	g := smallGraph(t)
	_, cl := fixture(t, g)
	hc, _ := New(cl, &opt.SGD{LR: 0.1}, 0)
	k := ps.EntityKey(0)
	if err := hc.Build([]ps.Key{k}, 0); err != nil {
		t.Fatal(err)
	}
	buf := []float32{1.5, -2.25, 3, math.Float32frombits(0x7fc00001)}
	offered := append([]float32(nil), buf...)
	hc.Offer(k, buf, 1)
	for i := range buf {
		buf[i] = 99
	}
	got, ok := hc.Get(k, 1)
	if !ok {
		t.Fatal("offered row missed")
	}
	for i := range offered {
		if math.Float32bits(got[i]) != math.Float32bits(offered[i]) {
			t.Fatalf("Get()[%d] = %v after the caller reused its buffer, want the offered %v", i, got[i], offered[i])
		}
	}
}

func TestStalenessBoundedByRefresh(t *testing.T) {
	// Another writer updates the PS; the cache serves the stale value
	// until the row is P iterations old, then misses, and the refresh the
	// caller pulls and offers back serves the new one. This is the
	// partial-stale contract of §IV-C.
	g := smallGraph(t)
	_, cl := fixture(t, g)
	hc, _ := New(cl, &opt.SGD{LR: 0.1}, 2) // P = 2
	k := ps.EntityKey(1)
	if err := hc.Build([]ps.Key{k}, 0); err != nil {
		t.Fatal(err)
	}
	stale, _ := hc.ServeStale(k, 0, 0)
	staleVal := stale[0]
	// Simulate a remote worker pushing a gradient to the PS.
	grad := []float32{2, 0, 0, 0}
	if err := cl.Push(map[ps.Key][]float32{k: grad}); err != nil {
		t.Fatal(err)
	}
	cur, ok := hc.Get(k, 1)
	if !ok || cur[0] != staleVal {
		t.Error("cache changed, or missed, within the staleness bound")
	}
	if _, ok := hc.Get(k, 2); ok {
		t.Fatal("row P iterations old served as a hit")
	}
	pulled := make(map[ps.Key][]float32)
	if err := cl.Pull([]ps.Key{k}, pulled); err != nil {
		t.Fatal(err)
	}
	hc.Offer(k, pulled[k], 2)
	fresh, ok := hc.Get(k, 2)
	if !ok || fresh[0] == staleVal {
		t.Error("refresh did not pick up the remote update")
	}
}

func TestNewValidation(t *testing.T) {
	g := smallGraph(t)
	_, cl := fixture(t, g)
	if _, err := New(nil, &opt.SGD{LR: 0.1}, 0); err == nil {
		t.Error("nil client accepted")
	}
	if _, err := New(cl, nil, 0); err == nil {
		t.Error("nil optimizer accepted")
	}
	if _, err := New(cl, &opt.SGD{LR: 0.1}, -1); err == nil {
		t.Error("negative staleBound accepted")
	}
}

func TestFIFOPolicy(t *testing.T) {
	f := NewFIFO(2)
	if f.Access(ps.EntityKey(1)) {
		t.Error("cold access hit")
	}
	if !f.Access(ps.EntityKey(1)) {
		t.Error("resident access missed")
	}
	f.Access(ps.EntityKey(2))
	f.Access(ps.EntityKey(3)) // evicts 1 (oldest)
	if f.Access(ps.EntityKey(1)) {
		t.Error("evicted key still resident")
	}
	if f.Len() != 2 {
		t.Errorf("Len = %d, want 2", f.Len())
	}
}

func TestLRUPolicy(t *testing.T) {
	l := NewLRU(2)
	l.Access(ps.EntityKey(1))
	l.Access(ps.EntityKey(2))
	l.Access(ps.EntityKey(1)) // 1 now most recent
	l.Access(ps.EntityKey(3)) // evicts 2
	if !l.Access(ps.EntityKey(1)) {
		t.Error("recently used key evicted")
	}
	if l.Access(ps.EntityKey(2)) {
		t.Error("least recently used key not evicted")
	}
}

func TestLFUPolicy(t *testing.T) {
	l := NewLFU(2)
	for i := 0; i < 5; i++ {
		l.Access(ps.EntityKey(1))
	}
	l.Access(ps.EntityKey(2))
	// Key 3 is colder than both residents: not admitted.
	l.Access(ps.EntityKey(3))
	if !l.Access(ps.EntityKey(1)) {
		t.Error("hot key evicted by cold newcomer")
	}
	// Heat key 3 until it displaces key 2.
	for i := 0; i < 5; i++ {
		l.Access(ps.EntityKey(3))
	}
	if !l.Access(ps.EntityKey(3)) {
		t.Error("now-hot key not admitted")
	}
}

func TestZeroCapacityPolicies(t *testing.T) {
	for _, name := range []string{"fifo", "lru", "lfu"} {
		p, ok := NewPolicy(name, 0)
		if !ok {
			t.Fatalf("NewPolicy(%q) failed", name)
		}
		if p.Access(ps.EntityKey(1)) || p.Len() != 0 {
			t.Errorf("%s with capacity 0 admitted a key", name)
		}
	}
	if _, ok := NewPolicy("arc", 1); ok {
		t.Error("unknown policy accepted")
	}
}

// Table VI's qualitative ordering: on a skewed access stream with equal
// capacity, FIFO < LRU < LFU < HET-KG's oracle-prefetch selection.
func TestPolicyOrderingOnSkewedStream(t *testing.T) {
	g := dataset.FB15kLike(dataset.Tiny, 5)
	s, err := sampler.New(sampler.Config{
		BatchSize: 32, NegPerPos: 4, ChunkSize: 8, NumEntity: g.NumEntity,
	}, g, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	p := Prefetch(s, 60)
	// The access stream is per-iteration *pulls*: within a mini-batch the
	// worker deduplicates ids and fetches each embedding once, so the
	// stream carries one access per distinct id per batch (matching how
	// the paper counts cache hits).
	var stream []ps.Key
	for _, b := range p.Batches {
		ents, rels := b.DistinctIDs()
		for _, e := range ents {
			stream = append(stream, ps.EntityKey(e))
		}
		for _, r := range rels {
			stream = append(stream, ps.RelationKey(r))
		}
	}
	const capacity = 40
	fifo := ReplayHitRatio(NewFIFO(capacity), stream)
	lru := ReplayHitRatio(NewLRU(capacity), stream)
	lfu := ReplayHitRatio(NewLFU(capacity), stream)
	keys, err := Filter(p, FilterConfig{Capacity: capacity, EntityFraction: 0.25, Heterogeneity: true})
	if err != nil {
		t.Fatal(err)
	}
	table := make(map[ps.Key]struct{}, len(keys))
	for _, k := range keys {
		table[k] = struct{}{}
	}
	het := StaticHitRatio(table, stream)
	t.Logf("hit ratios: fifo=%.3f lru=%.3f lfu=%.3f hetkg=%.3f", fifo, lru, lfu, het)
	if !(fifo <= lru+0.02) {
		t.Errorf("FIFO (%.3f) should not beat LRU (%.3f)", fifo, lru)
	}
	if !(lru < het) || !(lfu < het+1e-9) {
		t.Errorf("HET-KG (%.3f) must beat LRU (%.3f) and LFU (%.3f)", het, lru, lfu)
	}
	if het < 0.2 {
		t.Errorf("HET-KG hit ratio %.3f implausibly low on a skewed stream", het)
	}
}

func TestReplayHitRatioEmptyStream(t *testing.T) {
	if ReplayHitRatio(NewLRU(4), nil) != 0 {
		t.Error("empty stream ratio should be 0")
	}
	if StaticHitRatio(map[ps.Key]struct{}{}, nil) != 0 {
		t.Error("empty static ratio should be 0")
	}
}

// DPS exists because access patterns drift (§IV-B.2): when the sampling
// distribution changes mid-stream, a table rebuilt from short-term lookahead
// must beat the table frozen from the old distribution.
func TestDPSAdaptsToDriftingDistribution(t *testing.T) {
	// Phase 1 touches entities 0..49; phase 2 touches 50..99.
	phase := func(lo, hi, batches int) *Prefetched {
		p := &Prefetched{
			EntityFreq:   make([]int32, hi),
			RelationFreq: []int32{int32(batches)},
		}
		for b := 0; b < batches; b++ {
			for e := lo; e < hi; e++ {
				p.EntityFreq[e] += int32((hi - e) % 7) // some skew
			}
		}
		return p
	}
	cfg := FilterConfig{Capacity: 20, EntityFraction: 0.9, Heterogeneity: true}
	oldTable, err := Filter(phase(0, 50, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	newTable, err := Filter(phase(50, 100, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Phase-2 access stream.
	var stream []ps.Key
	for rep := 0; rep < 3; rep++ {
		for e := 50; e < 100; e++ {
			stream = append(stream, ps.EntityKey(kg.EntityID(e)))
		}
	}
	toSet := func(keys []ps.Key) map[ps.Key]struct{} {
		m := map[ps.Key]struct{}{}
		for _, k := range keys {
			m[k] = struct{}{}
		}
		return m
	}
	cpsHit := StaticHitRatio(toSet(oldTable), stream) // frozen CPS table
	dpsHit := StaticHitRatio(toSet(newTable), stream) // rebuilt DPS table
	if dpsHit <= cpsHit {
		t.Errorf("after drift, DPS hit %.3f should beat stale CPS %.3f", dpsHit, cpsHit)
	}
	if dpsHit < 0.3 {
		t.Errorf("rebuilt table hit %.3f implausibly low", dpsHit)
	}
}

// TestPolicyEvictionCounts pins eviction accounting for each policy.
func TestPolicyEvictionCounts(t *testing.T) {
	f := NewFIFO(2)
	for e := 0; e < 4; e++ {
		f.Access(ps.EntityKey(kg.EntityID(e)))
	}
	if f.Evictions() != 2 {
		t.Errorf("FIFO evictions = %d, want 2", f.Evictions())
	}
	l := NewLRU(2)
	for e := 0; e < 4; e++ {
		l.Access(ps.EntityKey(kg.EntityID(e)))
	}
	if l.Evictions() != 2 {
		t.Errorf("LRU evictions = %d, want 2", l.Evictions())
	}
	u := NewLFU(1)
	u.Access(ps.EntityKey(1))
	u.Access(ps.EntityKey(1))
	u.Access(ps.EntityKey(2)) // colder than resident: not admitted
	if u.Evictions() != 0 {
		t.Errorf("LFU evicted on a rejected admission: %d", u.Evictions())
	}
	u.Access(ps.EntityKey(2)) // now as hot as the resident: displaces key 1
	if u.Evictions() != 1 {
		t.Errorf("LFU evictions = %d, want 1", u.Evictions())
	}
}

// TestRebuildEvictsLeavingKeys pins the table's membership across Offer
// and a rebuild: an Offer for a key outside the table is ignored, a key
// that stays is re-pulled and served, and an evicted key is gone.
func TestRebuildEvictsLeavingKeys(t *testing.T) {
	g := smallGraph(t)
	_, cl := fixture(t, g)
	hc, err := New(cl, &opt.SGD{LR: 0.1}, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	k, gone := ps.EntityKey(0), ps.RelationKey(0)
	if err := hc.Build([]ps.Key{k, gone}, 0); err != nil {
		t.Fatal(err)
	}
	hc.Offer(ps.EntityKey(50), make([]float32, 4), 1)
	if _, ok := hc.Get(ps.EntityKey(50), 1); ok {
		t.Error("an Offer outside the table admitted its key")
	}
	if err := hc.Build([]ps.Key{k}, 3); err != nil {
		t.Fatal(err)
	}
	if _, ok := hc.Get(k, 3); !ok {
		t.Error("a key the rebuild kept missed")
	}
	if _, ok := hc.Get(gone, 3); ok {
		t.Error("an evicted key was served")
	}
	if _, ok := hc.ServeStale(gone, 3, 0); ok {
		t.Error("an evicted key was served stale")
	}
}

// TestHotCacheRebuildAllocs holds a DPS rebuild whose key set is unchanged
// to the allocations of its pull: kept rows keep their storage and their
// optimizer slot, so the table itself allocates nothing.
func TestHotCacheRebuildAllocs(t *testing.T) {
	g := smallGraph(t)
	_, cl := fixture(t, g)
	hc, err := New(cl, &opt.SGD{LR: 0.1}, 8)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hc.Instrument(metrics.NewRegistry())
	var keys []ps.Key
	for e := 0; e < 40; e++ {
		keys = append(keys, ps.EntityKey(kg.EntityID(e)))
	}
	for r := 0; r < 4; r++ {
		keys = append(keys, ps.RelationKey(kg.RelationID(r)))
	}
	if err := hc.Build(keys, 0); err != nil {
		t.Fatal(err)
	}
	it := 0
	build := testing.AllocsPerRun(20, func() {
		it++
		if err := hc.Build(keys, it); err != nil {
			t.Fatal(err)
		}
	})
	rows := make([][]float32, len(keys))
	for i := range rows {
		rows[i] = make([]float32, 4)
	}
	pull := testing.AllocsPerRun(20, func() {
		if err := cl.PullRows(keys, rows); err != nil {
			t.Fatal(err)
		}
	})
	if build > pull {
		t.Errorf("a rebuild of an unchanged table allocates %v times, its pull %v", build, pull)
	}
}
