package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hetkg/internal/metrics"
	"hetkg/internal/vec"
)

// DefaultRebuildEvery is the default number of cache accesses between hot-set
// rebuilds (promotion passes).
const DefaultRebuildEvery = 4096

// HotTier fronts a checkpoint's embedding tables with a fixed-budget
// in-memory hot tier, the serving-side analogue of the training HotCache:
// decayed access-frequency counters track per-row hotness, and a periodic
// promotion pass copies the hottest rows into a contiguous slab. The budget
// is split between entities and relations with the paper's heterogeneity
// quota (EntityFraction), because the two id spaces have wildly different
// hotness distributions — a handful of relations absorb most accesses.
//
// At serving time the cold table is an in-process matrix, so a hit saves a
// random-access read of cold storage rather than a network round trip; the
// tier models the architecture the paper motivates (hot rows pinned in fast
// memory, cold rows wherever capacity is cheap) and its hit ratio is the
// signal a deployment would use to size that fast memory. Lookups are
// lock-free (an atomic pointer to an immutable hot set), so readers never
// block behind a rebuild.
type HotTier struct {
	ents, rels *vec.Matrix
	// entFreq and relFreq are the decayed access counters; halved at every
	// rebuild so hotness tracks the recent workload, not all of history.
	entFreq, relFreq []atomic.Uint32
	entHot, relHot   atomic.Pointer[hotSet]
	entBudget        int
	relBudget        int
	rebuildEvery     int64
	accesses         atomic.Int64
	rebuilds         atomic.Int64
	hits, misses     atomic.Int64 // lookup outcomes since the last ResetStats
	mu               sync.Mutex   // serializes rebuilds
	obs              *tierObs
}

// hotSet is one immutable generation of promoted rows: idx maps a row id to
// its slab slot (-1 = cold). Readers load the pointer once and index
// without locks; rebuilds install a fresh generation.
type hotSet struct {
	idx  []int32
	slab []float32
	dim  int
}

// tierObs holds the tier's registry-backed series (see Instrument).
type tierObs struct {
	hits     *metrics.Counter
	misses   *metrics.Counter
	ratio    *metrics.Gauge
	promoted *metrics.Counter
	rebuilds *metrics.Counter
}

// NewHotTier builds a tier over the entity and relation tables. budget is
// the total hot-row count (0 = 5% of all rows, minimum 1); entityFraction
// is the entity share of the budget (0 = the paper's 0.25 default); unused
// relation budget spills back to entities. rebuildEvery is the access
// interval between automatic promotion passes (0 = DefaultRebuildEvery,
// negative = manual rebuilds only).
func NewHotTier(ents, rels *vec.Matrix, budget int, entityFraction float64, rebuildEvery int) (*HotTier, error) {
	if ents == nil || rels == nil || ents.Rows == 0 || rels.Rows == 0 {
		return nil, fmt.Errorf("serve: empty embedding tables")
	}
	total := ents.Rows + rels.Rows
	if budget <= 0 {
		budget = total / 20
		if budget < 1 {
			budget = 1
		}
	}
	if budget > total {
		budget = total
	}
	if entityFraction <= 0 {
		entityFraction = 0.25
	}
	if entityFraction > 1 {
		entityFraction = 1
	}
	relBudget := budget - int(entityFraction*float64(budget))
	if relBudget > rels.Rows {
		relBudget = rels.Rows // spill unused relation quota to entities
	}
	entBudget := budget - relBudget
	if entBudget > ents.Rows {
		entBudget = ents.Rows
	}
	every := int64(rebuildEvery)
	if rebuildEvery == 0 {
		every = DefaultRebuildEvery
	} else if rebuildEvery < 0 {
		every = 0 // manual
	}
	return &HotTier{
		ents:         ents,
		rels:         rels,
		entFreq:      make([]atomic.Uint32, ents.Rows),
		relFreq:      make([]atomic.Uint32, rels.Rows),
		entBudget:    entBudget,
		relBudget:    relBudget,
		rebuildEvery: every,
	}, nil
}

// Instrument publishes the tier's behaviour into reg: serve.cache.{hits,
// misses,promoted_rows,rebuilds} counters and the serve.cache.hit_ratio
// gauge (refreshed at every rebuild). Call before the tier is used.
func (h *HotTier) Instrument(reg *metrics.Registry) {
	h.obs = &tierObs{
		hits:     reg.Counter(metrics.MServeCacheHits),
		misses:   reg.Counter(metrics.MServeCacheMisses),
		ratio:    reg.Gauge(metrics.MServeCacheHitRatio),
		promoted: reg.Counter(metrics.MServeCachePromotedRows),
		rebuilds: reg.Counter(metrics.MServeCacheRebuilds),
	}
}

// Entity returns entity id's embedding row, counting the access toward the
// id's hotness. The id must be in range (the server validates requests).
func (h *HotTier) Entity(id int) []float32 {
	return h.lookup(&h.entFreq[id], &h.entHot, h.ents, id)
}

// Relation returns relation id's embedding row, counting the access toward
// the id's hotness. The id must be in range.
func (h *HotTier) Relation(id int) []float32 {
	return h.lookup(&h.relFreq[id], &h.relHot, h.rels, id)
}

func (h *HotTier) lookup(freq *atomic.Uint32, hot *atomic.Pointer[hotSet], cold *vec.Matrix, id int) []float32 {
	freq.Add(1)
	if n := h.accesses.Add(1); h.rebuildEvery > 0 && n%h.rebuildEvery == 0 {
		h.Rebuild()
	}
	if set := hot.Load(); set != nil {
		if j := set.idx[id]; j >= 0 {
			h.hits.Add(1)
			if o := h.obs; o != nil {
				o.hits.Inc()
			}
			return set.slab[int(j)*set.dim : (int(j)+1)*set.dim]
		}
	}
	h.misses.Add(1)
	if o := h.obs; o != nil {
		o.misses.Inc()
	}
	return cold.Row(id)
}

// Rebuild runs one promotion pass: the top-budget rows by decayed frequency
// (ties to the lower id) are copied into fresh hot sets, and every counter
// is halved so hotness decays exponentially over rebuild epochs. Safe to
// call concurrently with lookups; concurrent rebuilds serialize.
func (h *HotTier) Rebuild() {
	h.mu.Lock()
	defer h.mu.Unlock()
	promoted := int64(0)
	promoted += h.rebuildOne(&h.entHot, h.entFreq, h.ents, h.entBudget)
	promoted += h.rebuildOne(&h.relHot, h.relFreq, h.rels, h.relBudget)
	h.rebuilds.Add(1)
	if o := h.obs; o != nil {
		o.promoted.Add(promoted)
		o.rebuilds.Inc()
		o.ratio.Set(h.HitRatio())
	}
}

// rebuildOne promotes one table's hottest rows and halves its counters.
func (h *HotTier) rebuildOne(hot *atomic.Pointer[hotSet], freq []atomic.Uint32, cold *vec.Matrix, budget int) int64 {
	type cand struct {
		id int32
		n  uint32
	}
	cands := make([]cand, 0, len(freq))
	for i := range freq {
		n := freq[i].Load()
		freq[i].Store(n / 2)
		if n > 0 {
			cands = append(cands, cand{id: int32(i), n: n})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].n != cands[b].n {
			return cands[a].n > cands[b].n
		}
		return cands[a].id < cands[b].id
	})
	if len(cands) > budget {
		cands = cands[:budget]
	}
	set := &hotSet{
		idx:  make([]int32, cold.Rows),
		slab: make([]float32, len(cands)*cold.Dim),
		dim:  cold.Dim,
	}
	for i := range set.idx {
		set.idx[i] = -1
	}
	for j, c := range cands {
		set.idx[c.id] = int32(j)
		copy(set.slab[j*cold.Dim:(j+1)*cold.Dim], cold.Row(int(c.id)))
	}
	hot.Store(set)
	return int64(len(cands))
}

// HitRatio returns hits/(hits+misses) since the last ResetStats.
func (h *HotTier) HitRatio() float64 {
	hits, misses := h.hits.Load(), h.misses.Load()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Accesses returns the total lookup count.
func (h *HotTier) Accesses() int64 { return h.accesses.Load() }

// Rebuilds returns how many promotion passes have run.
func (h *HotTier) Rebuilds() int64 { return h.rebuilds.Load() }

// ResetStats zeroes the hit/miss counters (the frequency counters and the
// hot sets are untouched), so a warmed tier can be measured from a clean
// slate — the Zipf-vs-uniform benchmark protocol.
func (h *HotTier) ResetStats() {
	h.hits.Store(0)
	h.misses.Store(0)
}

// HotRows returns the currently promoted row counts (entities, relations).
func (h *HotTier) HotRows() (ents, rels int) {
	if s := h.entHot.Load(); s != nil {
		ents = len(s.slab) / s.dim
	}
	if s := h.relHot.Load(); s != nil {
		rels = len(s.slab) / s.dim
	}
	return ents, rels
}

// Budgets returns the per-table hot-row budgets (entities, relations).
func (h *HotTier) Budgets() (ents, rels int) { return h.entBudget, h.relBudget }
