package cache

import (
	"fmt"
	"slices"

	"hetkg/internal/metrics"
	"hetkg/internal/opt"
	"hetkg/internal/ps"
	"hetkg/internal/span"
)

// HotCache is one worker's hot-embedding table: a fixed identifier set with
// locally held values, each stamped with the iteration it was last
// synchronized against the parameter server.
//
// Staleness is bounded PER ROW: a cached row older than the bound P counts
// as a miss on Get — the worker re-pulls it and re-installs the fresh value
// via Offer. This realizes the partial-stale guarantee of §IV-C (every
// embedding used for a gradient is at most P iterations stale) while paying
// refresh traffic only for rows that are actually used, which is what makes
// the cache a net win on large graphs — and it is the semantics under which
// the paper's Fig. 8(b) observation ("hit ratio improves as staleness
// increases") holds: a tighter bound turns more reads into refresh misses.
//
// Gradients are applied to the local copy on Update *and* pushed to the PS
// by the trainer, so the PS remains the source of truth; staleness only
// reflects missed updates from other workers.
//
// HotCache is confined to its owning worker goroutine; only the hit-ratio
// counters are read concurrently.
type HotCache struct {
	client *ps.Client
	optim  opt.Optimizer
	rows   map[ps.Key]*hotRow
	// optSlots gives each key ever cached its slot in optim's state table.
	// It only grows: a DPS worker keeps pushing gradients for the same hot
	// rows across table generations, so their state outlives a rebuild.
	optSlots map[ps.Key]int
	// hits and gets tally Get outcomes since the last ResetStats.
	hits, gets metrics.Counter
	// staleBound is P; 0 means unbounded (cached rows never expire).
	staleBound int
	// refreshed counts rows pulled by Build (table construction
	// traffic; per-row refresh misses flow through the normal pull path).
	refreshed metrics.Counter

	obs    *cacheObs
	tracer *span.Tracer
	sc     span.Context
}

// cacheObs holds a cache's registry-backed series (see Instrument).
type cacheObs struct {
	hits      *metrics.Counter
	misses    *metrics.Counter
	staleness *metrics.Histogram
	evicted   *metrics.Counter
	refreshed *metrics.Counter
}

// Instrument publishes this cache's behaviour into reg: hit/miss counts
// (cache.{hits,misses}), the staleness each hit was served at — iterations
// since the row last synchronized with the parameter server — as the
// cache.staleness histogram, rows dropped when Build replaces the identifier
// table (cache.evicted_rows), and rows pulled by Build
// (cache.refresh_rows). Caches wired to the same registry aggregate. Call
// before the cache is used.
func (h *HotCache) Instrument(reg *metrics.Registry) {
	h.obs = &cacheObs{
		hits:      reg.Counter(metrics.MCacheHits),
		misses:    reg.Counter(metrics.MCacheMisses),
		staleness: reg.Histogram(metrics.MCacheStaleness),
		evicted:   reg.Counter(metrics.MCacheEvictedRows),
		refreshed: reg.Counter(metrics.MCacheRefreshRows),
	}
}

// Trace attaches the owning worker's span tracer. Build then records
// cache.refresh spans under the current span context, with their bulk
// pulls nested beneath. Safe to leave unset.
func (h *HotCache) Trace(t *span.Tracer) { h.tracer = t }

// SetSpanContext sets the context refresh spans parent under — the sampled
// batch's root span. Pass the zero Context to stop recording.
func (h *HotCache) SetSpanContext(sc span.Context) { h.sc = sc }

// refreshSpan opens a cache.refresh span and re-parents the client's RPC
// spans beneath it for the duration of the bulk pull, so refresh traffic
// attributes to the refresh, not directly to the batch. done() ends the span
// and restores the client's context.
func (h *HotCache) refreshSpan() (sp span.Active, done func(rows int64)) {
	sp = h.tracer.StartChild(h.sc, span.NCacheRefresh)
	if !sp.Valid() {
		return sp, func(int64) {}
	}
	prev := h.client.SpanContext()
	h.client.SetSpanContext(sp.Context())
	return sp, func(rows int64) {
		h.client.SetSpanContext(prev)
		sp.EndAttrs(span.Attrs{Rows: rows, Shard: span.NoShard})
	}
}

type hotRow struct {
	vals     []float32 // the cache's own copy (see Offer)
	optSlot  int       // the row's slot in the local optimizer's state
	lastSync int
	// version counts synchronizations with the parameter server (Build,
	// Offer), starting at 1. It is the cache-level view of the
	// replica generation the wire codec's delta protocol keys on: a row's
	// version advances exactly when a fresh server-side value lands, so
	// "the version the worker holds" is well defined for the pull path.
	version uint32
}

// New builds an empty cache for a worker. localOpt is the optimizer applied
// to cached copies on Update (the paper's workers mirror the server-side
// AdaGrad); staleBound is P (0 = unbounded staleness).
func New(client *ps.Client, localOpt opt.Optimizer, staleBound int) (*HotCache, error) {
	if client == nil {
		return nil, fmt.Errorf("cache: nil ps client")
	}
	if localOpt == nil {
		return nil, fmt.Errorf("cache: nil local optimizer")
	}
	if staleBound < 0 {
		return nil, fmt.Errorf("cache: negative staleBound %d", staleBound)
	}
	return &HotCache{
		client:     client,
		optim:      localOpt,
		rows:       make(map[ps.Key]*hotRow),
		optSlots:   make(map[ps.Key]int),
		staleBound: staleBound,
	}, nil
}

// Build replaces the identifier table with keys and pulls their current
// values from the parameter server (the tail of Algorithm 2), stamping them
// with the given iteration. The local optimizer state survives rebuilds —
// it is keyed by embedding id, and a DPS worker keeps pushing gradients for
// the same hot rows across table generations.
func (h *HotCache) Build(keys []ps.Key, iteration int) error {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	vals := make([][]float32, len(sorted))
	if len(sorted) > 0 {
		total := 0
		for _, k := range sorted {
			total += h.client.Width(k)
		}
		slab := make([]float32, total)
		for i, k := range sorted {
			w := h.client.Width(k)
			vals[i], slab = slab[:w:w], slab[w:]
		}
		_, done := h.refreshSpan()
		err := h.client.PullRows(sorted, vals)
		done(int64(len(sorted)))
		if err != nil {
			return fmt.Errorf("cache: building hot-embedding table: %w", err)
		}
		h.refreshed.Add(int64(len(sorted)))
		if o := h.obs; o != nil {
			o.refreshed.Add(int64(len(sorted)))
		}
	}
	table := make([]hotRow, len(sorted))
	rows := make(map[ps.Key]*hotRow, len(sorted))
	for i, k := range sorted {
		ver := uint32(1)
		if old := h.rows[k]; old != nil {
			ver = old.version + 1
		}
		slot, ok := h.optSlots[k]
		if !ok {
			slot = len(h.optSlots)
			h.optSlots[k] = slot
		}
		table[i] = hotRow{vals: vals[i], optSlot: slot, lastSync: iteration, version: ver}
		rows[k] = &table[i]
	}
	if o := h.obs; o != nil {
		for k := range h.rows {
			if _, kept := rows[k]; !kept {
				o.evicted.Inc()
			}
		}
	}
	h.rows = rows
	return nil
}

// Len returns the number of cached rows.
func (h *HotCache) Len() int { return len(h.rows) }

// Get returns the cached row for k if it is present and within the
// staleness bound at the given iteration, recording a hit or miss. A stale
// row is a miss: the caller pulls the fresh value and hands it back through
// Offer. The returned slice is the live local copy.
func (h *HotCache) Get(k ps.Key, iteration int) ([]float32, bool) {
	row, ok := h.rows[k]
	h.gets.Inc()
	if !ok || h.stale(row, iteration) {
		if o := h.obs; o != nil {
			o.misses.Inc()
		}
		return nil, false
	}
	h.hits.Inc()
	if o := h.obs; o != nil {
		o.hits.Inc()
		o.staleness.ObserveInt(int64(iteration - row.lastSync))
	}
	return row.vals, true
}

func (h *HotCache) stale(row *hotRow, iteration int) bool {
	return h.staleBound > 0 && iteration-row.lastSync >= h.staleBound
}

// Offer installs a freshly pulled value for k if k belongs to the
// identifier table, resetting its staleness clock. Values for keys outside
// the table are ignored (they are not hot). The cache copies vals into its
// own row, so the caller may reuse its buffer (a worker pulls every batch
// into the same slab).
func (h *HotCache) Offer(k ps.Key, vals []float32, iteration int) {
	row, ok := h.rows[k]
	if !ok {
		return
	}
	copy(row.vals, vals)
	row.lastSync = iteration
	row.version++
}

// Version returns the row's synchronization generation: how many times a
// fresh parameter-server value has been installed for k (0 when k is not
// cached). Diagnostics and the delta-codec tests use it to reason about
// which generation a worker replica holds.
func (h *HotCache) Version(k ps.Key) uint32 {
	row, ok := h.rows[k]
	if !ok {
		return 0
	}
	return row.version
}

// ServeStale returns the cached row for k if its age at the given iteration
// is within maxAge (0 = any age), without touching the hit-ratio counters —
// the Get that preceded it already recorded the miss. This is the degraded
// mode's read path while k's shard link is down: the row may be staler than
// the cache's own bound P, but never staler than maxAge, which keeps the
// staleness guarantee explicit (a used row is at most max(P, maxAge) stale).
func (h *HotCache) ServeStale(k ps.Key, iteration, maxAge int) ([]float32, bool) {
	row, ok := h.rows[k]
	if !ok {
		return nil, false
	}
	if maxAge > 0 && iteration-row.lastSync >= maxAge {
		return nil, false
	}
	return row.vals, true
}

// Update applies a gradient to the cached copy of k (workflow step 4:
// "update the corresponding gradients to the involved hot-embeddings").
// Unknown keys are ignored — the gradient still reaches the PS through the
// trainer's push. A gradient holding a NaN or an infinity is dropped, as
// the shard drops it (opt.ApplyFinite), so the replica stays its shard's.
func (h *HotCache) Update(k ps.Key, grad []float32) {
	row, ok := h.rows[k]
	if !ok {
		return
	}
	opt.ApplyFinite(h.optim, row.optSlot, row.vals, grad)
}

// RefreshedRows returns the total rows pulled by Build over the
// cache's lifetime (table-construction traffic; per-row staleness refreshes
// travel through the worker's ordinary pulls instead).
func (h *HotCache) RefreshedRows() int64 { return h.refreshed.Value() }

// HitRatio returns the cache hit ratio since the last ResetStats. Under
// per-row staleness this is also the local-service ratio: every miss —
// cold or stale — costs one parameter-server pull.
func (h *HotCache) HitRatio() float64 {
	gets := h.gets.Value()
	if gets == 0 {
		return 0
	}
	return float64(h.hits.Value()) / float64(gets)
}

// Accesses returns the total number of Get calls since the last ResetStats.
func (h *HotCache) Accesses() int64 { return h.gets.Value() }

// ResetStats clears the hit-ratio counters (values stay cached).
func (h *HotCache) ResetStats() {
	h.hits.Reset()
	h.gets.Reset()
}
