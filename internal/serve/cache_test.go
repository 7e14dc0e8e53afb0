package serve

import (
	"math/rand"
	"testing"

	"hetkg/internal/metrics"
	"hetkg/internal/vec"
)

// testMatrices builds recognizable tables: row i of each table is filled
// with the value i (entities) or 1000+i (relations), so a returned slice's
// first element identifies which row — and which copy — it came from.
func testMatrices(ents, rels, dim int) (*vec.Matrix, *vec.Matrix) {
	e := vec.NewMatrix(ents, dim)
	r := vec.NewMatrix(rels, dim)
	for i := 0; i < ents; i++ {
		for d := 0; d < dim; d++ {
			e.Row(i)[d] = float32(i)
		}
	}
	for i := 0; i < rels; i++ {
		for d := 0; d < dim; d++ {
			r.Row(i)[d] = float32(1000 + i)
		}
	}
	return e, r
}

// TestHotTierPromotion checks that hot rows serve from the slab after a
// rebuild with correct values, and cold rows keep serving from the table.
func TestHotTierPromotion(t *testing.T) {
	e, r := testMatrices(100, 10, 4)
	h, err := NewHotTier(e, r, 8, 0.5, -1) // manual rebuilds: 4 ent + 4 rel slots
	if err != nil {
		t.Fatal(err)
	}
	if eb, rb := h.Budgets(); eb != 4 || rb != 4 {
		t.Fatalf("budgets = (%d, %d), want (4, 4)", eb, rb)
	}
	// Skewed touches: entities 1,2,3,4 hot; relations 0,1 hot.
	for i := 0; i < 10; i++ {
		for id := 1; id <= 4; id++ {
			h.Entity(id)
		}
		h.Relation(0)
		h.Relation(1)
	}
	if hr := h.HitRatio(); hr != 0 {
		t.Errorf("hit ratio %v before first rebuild, want 0", hr)
	}
	h.Rebuild()
	if he, hrr := h.HotRows(); he != 4 || hrr != 2 {
		t.Errorf("hot rows = (%d, %d), want (4, 2)", he, hrr)
	}
	h.ResetStats()
	for _, id := range []int{1, 2, 3, 4} {
		row := h.Entity(id)
		if row[0] != float32(id) {
			t.Errorf("hot entity %d row starts with %v", id, row[0])
		}
	}
	if row := h.Entity(50); row[0] != 50 { // cold
		t.Errorf("cold entity row = %v, want 50", row[0])
	}
	if row := h.Relation(1); row[0] != 1001 {
		t.Errorf("hot relation row = %v, want 1001", row[0])
	}
	// 4 hot entity + 1 hot relation hits, 1 cold miss.
	if hr := h.HitRatio(); hr != 5.0/6.0 {
		t.Errorf("hit ratio = %v, want 5/6", hr)
	}
	if h.Rebuilds() != 1 {
		t.Errorf("rebuilds = %d, want 1", h.Rebuilds())
	}
}

// TestHotTierDecay checks counters halve at each rebuild, so stale hotness
// ages out: a row hammered once loses its slot to a steadily-hot row.
func TestHotTierDecay(t *testing.T) {
	e, r := testMatrices(10, 2, 2)
	h, err := NewHotTier(e, r, 2, 0.5, -1) // 1 entity slot
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		h.Entity(3) // burst
	}
	h.Entity(7)
	h.Rebuild()
	if h.Entity(3)[0] != 3 {
		t.Fatal("sanity: row value")
	}
	h.ResetStats()
	h.Entity(3)
	if h.HitRatio() != 1 {
		t.Error("burst row not hot after first rebuild")
	}
	// The burst never recurs; 7 is touched every epoch. After enough
	// halvings (100 → 50 → 25 → ... → 0) the steady row wins the slot.
	for epoch := 0; epoch < 8; epoch++ {
		for i := 0; i < 3; i++ {
			h.Entity(7)
		}
		h.Rebuild()
	}
	h.ResetStats()
	h.Entity(7)
	h.Entity(3)
	if h.HitRatio() != 0.5 {
		t.Errorf("after decay: hit ratio = %v, want 0.5 (7 hot, 3 evicted)", h.HitRatio())
	}
}

// TestHotTierBudgetSplit checks the heterogeneity quota: the relation share
// is capped by the relation table size, with the surplus spilling back to
// entities, and the default split is the paper's 25% entities.
func TestHotTierBudgetSplit(t *testing.T) {
	e, r := testMatrices(1000, 4, 2)
	// Default fraction 0.25: 75% of 100 = 75 relation rows wanted, but the
	// table only has 4; the surplus spills to entities.
	h, err := NewHotTier(e, r, 100, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if eb, rb := h.Budgets(); eb != 96 || rb != 4 {
		t.Errorf("budgets = (%d, %d), want (96, 4)", eb, rb)
	}
	// Default budget: 5% of 1004 rows = 50.
	h, err = NewHotTier(e, r, 0, 0.5, -1)
	if err != nil {
		t.Fatal(err)
	}
	eb, rb := h.Budgets()
	if eb+rb != 50 {
		t.Errorf("default budget = %d, want 50", eb+rb)
	}
}

// TestHotTierAutoRebuild checks the access-count trigger promotes without
// any manual Rebuild call.
func TestHotTierAutoRebuild(t *testing.T) {
	e, r := testMatrices(50, 4, 2)
	h, err := NewHotTier(e, r, 4, 0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 250; i++ {
		h.Entity(i % 5)
	}
	if h.Rebuilds() != 2 {
		t.Errorf("rebuilds = %d after 250 accesses every 100, want 2", h.Rebuilds())
	}
	if he, _ := h.HotRows(); he == 0 {
		t.Error("no hot entities after auto rebuild")
	}
}

// TestHotTierInstrumented checks the registry series mirror the tier.
func TestHotTierInstrumented(t *testing.T) {
	e, r := testMatrices(50, 4, 2)
	h, err := NewHotTier(e, r, 4, 0.5, -1)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	h.Instrument(reg)
	for i := 0; i < 20; i++ {
		h.Entity(1)
	}
	h.Rebuild()
	for i := 0; i < 10; i++ {
		h.Entity(1)
	}
	h.Entity(30)
	if v := reg.Counter(metrics.MServeCacheHits).Value(); v != 10 {
		t.Errorf("%s = %d, want 10", metrics.MServeCacheHits, v)
	}
	if v := reg.Counter(metrics.MServeCacheMisses).Value(); v != 21 {
		t.Errorf("%s = %d, want 21", metrics.MServeCacheMisses, v)
	}
	if v := reg.Counter(metrics.MServeCacheRebuilds).Value(); v != 1 {
		t.Errorf("%s = %d, want 1", metrics.MServeCacheRebuilds, v)
	}
	if v := reg.Counter(metrics.MServeCachePromotedRows).Value(); v == 0 {
		t.Errorf("%s = 0, want > 0", metrics.MServeCachePromotedRows)
	}
	h.Rebuild() // ratio gauge refreshes at rebuild
	if got, want := reg.Gauge(metrics.MServeCacheHitRatio).Value(), h.HitRatio(); got != want {
		t.Errorf("%s = %v, want %v", metrics.MServeCacheHitRatio, got, want)
	}
}

// measureHitRatio warms the tier on 4·rebuildEvery draws from next, resets
// the stats, then measures the hit ratio over another 4·rebuildEvery draws.
func measureHitRatio(t *testing.T, next func() int) float64 {
	t.Helper()
	const n, dim, rels = 10000, 4, 16
	e, r := testMatrices(n, rels, dim)
	h, err := NewHotTier(e, r, n/20, 0.9, 2048) // 500 rows, mostly entities
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*2048; i++ {
		h.Entity(next())
	}
	h.ResetStats()
	for i := 0; i < 4*2048; i++ {
		h.Entity(next())
	}
	return h.HitRatio()
}

// TestZipfBeatsUniform is the cache's reason to exist: at the same budget
// (5% of rows), a Zipf-skewed query stream — the paper's access model for
// knowledge graphs — must achieve a materially higher hit ratio than
// uniform queries, for which a 5% cache can serve at most ~5% of lookups.
func TestZipfBeatsUniform(t *testing.T) {
	zr := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(zr, 1.1, 1, 10000-1)
	zipfRatio := measureHitRatio(t, func() int { return int(zipf.Uint64()) })
	ur := rand.New(rand.NewSource(11))
	uniformRatio := measureHitRatio(t, func() int { return ur.Intn(10000) })
	t.Logf("hit ratio: zipf %.3f, uniform %.3f", zipfRatio, uniformRatio)
	if uniformRatio > 0.12 {
		t.Errorf("uniform hit ratio %.3f implausibly high for a 5%% budget", uniformRatio)
	}
	if zipfRatio < 0.5 {
		t.Errorf("zipf hit ratio %.3f, want >= 0.5", zipfRatio)
	}
	if zipfRatio < 4*uniformRatio {
		t.Errorf("zipf ratio %.3f not materially above uniform %.3f", zipfRatio, uniformRatio)
	}
}
