package cache

import (
	"math/rand"
	"testing"

	"hetkg/internal/dataset"
	"hetkg/internal/kg"
	"hetkg/internal/opt"
	"hetkg/internal/ps"
	"hetkg/internal/sampler"
)

// fixture builds a 1-machine cluster with a client over a small graph.
func fixture(t *testing.T, g *kg.Graph) (*ps.Cluster, *ps.Client) {
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

func smallGraph(t *testing.T) *kg.Graph {
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
		if p.EntityFreq[e] != w {
			t.Errorf("EntityFreq[%d] = %d, want %d", e, p.EntityFreq[e], w)
		}
	}
	for r, w := range relWant {
		if p.RelationFreq[r] != w {
			t.Errorf("RelationFreq[%d] = %d, want %d", r, p.RelationFreq[r], w)
		}
	}
}

func TestFilterCapacityAndQuota(t *testing.T) {
	p := &Prefetched{
		EntityFreq:   map[kg.EntityID]int{0: 100, 1: 90, 2: 80, 3: 70, 4: 60},
		RelationFreq: map[kg.RelationID]int{0: 500, 1: 400, 2: 300, 3: 200},
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
		EntityFreq:   map[kg.EntityID]int{0: 10, 1: 9},
		RelationFreq: map[kg.RelationID]int{0: 100, 1: 90, 2: 80},
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
		EntityFreq:   map[kg.EntityID]int{0: 9, 1: 8, 2: 7, 3: 6, 4: 5, 5: 4, 6: 3, 7: 2, 8: 1},
		RelationFreq: map[kg.RelationID]int{0: 100, 1: 90},
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
		EntityFreq:   map[kg.EntityID]int{0: 2},
		RelationFreq: map[kg.RelationID]int{0: 3},
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
	p := &Prefetched{EntityFreq: map[kg.EntityID]int{}, RelationFreq: map[kg.RelationID]int{}}
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
	// Refresh restores the PS value (local divergence erased).
	if err := hc.Refresh(0); err != nil {
		t.Fatal(err)
	}
	fresh, _ := hc.ServeStale(ps.EntityKey(0), 0, 0)
	if fresh[0] != psRows[ps.EntityKey(0)][0] {
		t.Error("Refresh did not restore the PS value")
	}
}

func TestHotCacheUpdateUnknownKeyIsNoop(t *testing.T) {
	g := smallGraph(t)
	_, cl := fixture(t, g)
	hc, _ := New(cl, &opt.SGD{LR: 0.1}, 0)
	hc.Update(ps.EntityKey(99), []float32{1, 1, 1, 1}) // must not panic
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
	if hc0.Contains(ps.EntityKey(99)) {
		t.Error("Offer admitted a non-hot key")
	}
}

func TestStalenessBoundedByRefresh(t *testing.T) {
	// Another writer updates the PS; the cache serves the stale value
	// until Refresh, after which it serves the new one. This is the
	// partial-stale contract of §IV-C.
	g := smallGraph(t)
	_, cl := fixture(t, g)
	hc, _ := New(cl, &opt.SGD{LR: 0.1}, 0)
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
	cur, _ := hc.ServeStale(k, 0, 0)
	if cur[0] != staleVal {
		t.Error("cache changed without Refresh")
	}
	if err := hc.Refresh(0); err != nil {
		t.Fatal(err)
	}
	fresh, _ := hc.ServeStale(k, 0, 0)
	if fresh[0] == staleVal {
		t.Error("Refresh did not pick up the remote update")
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

func TestStrategyString(t *testing.T) {
	if CPS.String() != "CPS" || DPS.String() != "DPS" {
		t.Error("Strategy.String wrong")
	}
}

// DPS exists because access patterns drift (§IV-B.2): when the sampling
// distribution changes mid-stream, a table rebuilt from short-term lookahead
// must beat the table frozen from the old distribution.
func TestDPSAdaptsToDriftingDistribution(t *testing.T) {
	// Phase 1 touches entities 0..49; phase 2 touches 50..99.
	phase := func(lo, hi, batches int) *Prefetched {
		p := &Prefetched{
			EntityFreq:   map[kg.EntityID]int{},
			RelationFreq: map[kg.RelationID]int{0: batches},
		}
		for b := 0; b < batches; b++ {
			for e := lo; e < hi; e++ {
				p.EntityFreq[kg.EntityID(e)] += (hi - e) % 7 // some skew
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

// TestRowVersions pins the synchronization-generation counter the delta
// wire codec reasons about: absent rows report 0, Build starts at 1, every
// fresh install (Offer, Refresh) advances it, and rebuilding an existing
// key continues its generation instead of restarting.
func TestRowVersions(t *testing.T) {
	g := smallGraph(t)
	_, cl := fixture(t, g)
	hc, err := New(cl, &opt.SGD{LR: 0.1}, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	k := ps.EntityKey(0)
	if v := hc.Version(k); v != 0 {
		t.Errorf("uncached version = %d, want 0", v)
	}
	keys := []ps.Key{k, ps.RelationKey(0)}
	if err := hc.Build(keys, 0); err != nil {
		t.Fatal(err)
	}
	if v := hc.Version(k); v != 1 {
		t.Errorf("version after Build = %d, want 1", v)
	}
	hc.Offer(k, make([]float32, 4), 1)
	if v := hc.Version(k); v != 2 {
		t.Errorf("version after Offer = %d, want 2", v)
	}
	// Offers for keys outside the table do not create versions.
	hc.Offer(ps.EntityKey(50), make([]float32, 4), 1)
	if v := hc.Version(ps.EntityKey(50)); v != 0 {
		t.Errorf("foreign key gained version %d", v)
	}
	if err := hc.Refresh(2); err != nil {
		t.Fatal(err)
	}
	if v := hc.Version(k); v != 3 {
		t.Errorf("version after Refresh = %d, want 3", v)
	}
	// A rebuild keeps the generation moving for surviving keys and drops
	// it for evicted ones.
	if err := hc.Build([]ps.Key{k}, 3); err != nil {
		t.Fatal(err)
	}
	if v := hc.Version(k); v != 4 {
		t.Errorf("version after rebuild = %d, want 4", v)
	}
	if v := hc.Version(ps.RelationKey(0)); v != 0 {
		t.Errorf("evicted key kept version %d", v)
	}
}
