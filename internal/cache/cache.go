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
	space  ps.KeySpace
	// at maps a key's dense index to 1 + its row's position in rows, 0
	// when the key is not cached. The dense index is also the row's slot in
	// optim's state, so that state outlives rebuilds: a DPS worker keeps
	// pushing gradients for the same hot rows across table generations.
	at []int32
	// rows are the table's positions. A position a leaving key frees keeps
	// its storage for the next entering key, so a rebuild allocates only
	// when the table grows.
	rows []hotRow
	free []int32 // positions no key holds
	// keys is the table in key order; next and vals are Build's scratch.
	keys, next []ps.Key
	vals       [][]float32
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
// and restores the client's context. Untraced, it allocates nothing.
func (h *HotCache) refreshSpan() (done func(rows int64)) {
	sp := h.tracer.StartChild(h.sc, span.NCacheRefresh)
	if !sp.Valid() {
		return func(int64) {}
	}
	active, prev := sp, h.client.SpanContext()
	h.client.SetSpanContext(active.Context())
	return func(rows int64) {
		h.client.SetSpanContext(prev)
		active.EndAttrs(span.Attrs{Rows: rows, Shard: span.NoShard})
	}
}

type hotRow struct {
	vals     []float32 // the cache's own copy (see Offer)
	lastSync int
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
		space:      client.Keys(),
		at:         make([]int32, client.Keys().Len()),
		staleBound: staleBound,
	}, nil
}

// Build replaces the identifier table with keys and pulls their current
// values from the parameter server (the tail of Algorithm 2), stamping them
// with the given iteration. A key that stays keeps its row's storage and
// its local optimizer state; a key that leaves frees its row for one that
// enters. A failed pull leaves the table empty, so no row it may have
// half-written is ever served.
func (h *HotCache) Build(keys []ps.Key, iteration int) error {
	next := append(h.next[:0], keys...)
	slices.Sort(next)
	next = slices.Compact(next)
	for _, k := range next {
		if _, ok := h.space.Index(k); !ok {
			return fmt.Errorf("cache: building hot-embedding table: key %v outside the key space", k)
		}
	}
	h.next = next
	// Free the leaving rows first, so entering keys reuse their storage.
	j := 0
	for _, k := range h.keys {
		for j < len(next) && next[j] < k {
			j++
		}
		if j == len(next) || next[j] != k {
			h.evict(k)
			if o := h.obs; o != nil {
				o.evicted.Inc()
			}
		}
	}
	vals := h.vals[:0]
	for _, k := range next {
		vals = append(vals, h.claim(k))
	}
	h.vals = vals
	h.keys, h.next = next, h.keys
	if len(next) == 0 {
		return nil
	}
	done := h.refreshSpan()
	err := h.client.PullRows(next, vals)
	done(int64(len(next)))
	if err != nil {
		for _, k := range next {
			h.evict(k)
		}
		h.keys = h.keys[:0]
		return fmt.Errorf("cache: building hot-embedding table: %w", err)
	}
	for _, k := range next {
		h.row(k).lastSync = iteration
	}
	h.refreshed.Add(int64(len(next)))
	if o := h.obs; o != nil {
		o.refreshed.Add(int64(len(next)))
	}
	return nil
}

// claim returns k's row storage, giving k a position if it has none.
func (h *HotCache) claim(k ps.Key) []float32 {
	i, _ := h.space.Index(k)
	if h.at[i] == 0 {
		if n := len(h.free); n > 0 {
			h.at[i] = h.free[n-1] + 1
			h.free = h.free[:n-1]
		} else {
			h.rows = append(h.rows, hotRow{})
			h.at[i] = int32(len(h.rows))
		}
	}
	r, w := &h.rows[h.at[i]-1], h.client.Width(k)
	r.vals = slices.Grow(r.vals[:0], w)[:w]
	return r.vals
}

// evict frees k's position, which must be held.
func (h *HotCache) evict(k ps.Key) {
	i, _ := h.space.Index(k)
	h.free = append(h.free, h.at[i]-1)
	h.at[i] = 0
}

// row returns k's row, or nil when k is not in the table.
func (h *HotCache) row(k ps.Key) *hotRow {
	i, ok := h.space.Index(k)
	if !ok || h.at[i] == 0 {
		return nil
	}
	return &h.rows[h.at[i]-1]
}

// Len returns the number of cached rows.
func (h *HotCache) Len() int { return len(h.keys) }

// Get returns the cached row for k if it is present and within the
// staleness bound at the given iteration, recording a hit or miss. A stale
// row is a miss: the caller pulls the fresh value and hands it back through
// Offer. The returned slice is the live local copy, valid until the next
// Build.
func (h *HotCache) Get(k ps.Key, iteration int) ([]float32, bool) {
	row := h.row(k)
	h.gets.Inc()
	if row == nil || h.stale(row, iteration) {
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
	if row := h.row(k); row != nil {
		copy(row.vals, vals)
		row.lastSync = iteration
	}
}

// ServeStale returns the cached row for k if its age at the given iteration
// is within maxAge (0 = any age), without touching the hit-ratio counters —
// the Get that preceded it already recorded the miss. This is the degraded
// mode's read path while k's shard link is down: the row may be staler than
// the cache's own bound P, but never staler than maxAge, which keeps the
// staleness guarantee explicit (a used row is at most max(P, maxAge) stale).
func (h *HotCache) ServeStale(k ps.Key, iteration, maxAge int) ([]float32, bool) {
	row := h.row(k)
	if row == nil || maxAge > 0 && iteration-row.lastSync >= maxAge {
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
	if row := h.row(k); row != nil {
		i, _ := h.space.Index(k)
		opt.ApplyFinite(h.optim, i, row.vals, grad)
	}
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
