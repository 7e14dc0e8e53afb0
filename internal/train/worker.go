package train

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"time"

	"hetkg/internal/cache"
	"hetkg/internal/kg"
	"hetkg/internal/model"
	"hetkg/internal/netsim"
	"hetkg/internal/par"
	"hetkg/internal/ps"
	"hetkg/internal/sampler"
	"hetkg/internal/span"
	"hetkg/internal/vec"
)

// batchShards is the fixed shard grid for within-batch parallel gradient
// computation. Shard boundaries must not depend on the parallelism degree
// (see internal/par), so the grid is a constant: positives are split into at
// most batchShards contiguous ranges, each range accumulates gradients into
// private scratch, and the partial sums merge in shard order. Parallelism-1
// and parallelism-N runs therefore produce bit-identical results; the
// constant also caps useful within-batch parallelism at 32 cores, the
// paper's per-machine core count.
const batchShards = 32

// worker is one training worker: a sampler over its machine's subgraph, a
// PS client, an optional hot-embedding cache, and per-epoch accounting.
// The PS driver (pstrain.go) gives each worker one batch per turn, in
// worker-id order, so asynchronous interleaving (worker A missing worker B's
// fresh pushes until cache refresh) is reproduced deterministically;
// per-worker clocks model what would run in parallel on separate machines.
// Within a turn, the batch's gradient computation fans out across cores
// (processBatch).
type worker struct {
	id      int
	machine int
	smp     *sampler.Sampler
	client  *ps.Client
	meter   *netsim.Meter
	hot     *cache.HotCache // nil for cacheless trainers
	ef      *errorFeedback  // nil unless the codec profile sparsifies pushes

	cfg    *config
	degree int           // resolved compute parallelism
	scr    *batchScratch // worker-owned arena, reused across batches
	obs    *trainObs     // run-shared registry handles
	tracer *span.Tracer  // per-batch span tracer (nil when unwired)
	sp     span.Active   // current batch's root span (zero when unsampled)

	// queued holds prefetched batches to replay (HET-KG).
	queued []*sampler.Batch
	// built records that the CPS one-shot hot-table build has run for this
	// worker. It lives and dies with the worker, so a partition re-adopted
	// into a fresh worker (empty HotCache) builds its table again.
	built bool
	// iteration counts processed batches for staleness bookkeeping.
	iteration int
	// pushBuf holds gradient rows for unreachable shards by dense index,
	// coalesced, awaiting replay; buffered counts them (degraded mode; see
	// degraded.go).
	pushBuf  [][]float32
	buffered int

	// Per-epoch accounting, reset by epochAcc.add.
	compTime  time.Duration
	commBase  netsim.Snapshot
	lossSum   float64
	lossCount int
	// Run-level cache accounting, accumulated at epoch boundaries.
	accTotal, hitTotal float64
}

// workerBuilder constructs individual workers over the partitioned
// subgraphs, for the driver's runners: all up front in static runs, built
// and rebuilt as the coordinator assigns partitions in elastic ones.
type workerBuilder struct {
	cfg  *config
	env  *psEnv
	subs []*kg.Graph
	tobs *trainObs
	prof ps.Profile
}

// newWorkerBuilder prepares shared state for building workers.
func newWorkerBuilder(cfg *config, env *psEnv) (*workerBuilder, error) {
	prof, err := ps.ResolveProfile(cfg.Codec)
	if err != nil {
		return nil, err
	}
	return &workerBuilder{
		cfg:  cfg,
		env:  env,
		subs: env.part.Subgraphs(cfg.train),
		tobs: newTrainObs(cfg.Metrics),
		prof: prof,
	}, nil
}

// build constructs the worker with global id on machine m. The sampler seed
// is a pure function of (cfg.Seed, id), so any process that builds worker
// id — including one adopting the partition after its first owner died —
// derives the identical batch stream and can resume it by fast-forward. The
// worker carries a HotCache when the system has a hot table.
func (b *workerBuilder) build(m, id int) (*worker, error) {
	cfg := b.cfg
	meter := &netsim.Meter{}
	client, err := ps.NewClient(m, b.env.cluster, b.env.tr, meter)
	if err != nil {
		return nil, err
	}
	meter.Instrument(cfg.Metrics, cfg.CostModel)
	client.Instrument(cfg.Metrics)
	rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
	smp, err := sampler.New(sampler.Config{
		BatchSize:       cfg.BatchSize,
		NegPerPos:       cfg.NegPerPos,
		ChunkSize:       cfg.ChunkSize,
		NumEntity:       cfg.train.NumEntity,
		Filter:          cfg.filter,
		NegativeWeights: cfg.negWeights,
	}, b.subs[m], rng)
	if err != nil {
		return nil, err
	}
	w := &worker{
		id:      id,
		machine: m,
		smp:     smp,
		client:  client,
		meter:   meter,
		cfg:     cfg,
		degree:  par.Degree(cfg.Parallelism),
		obs:     b.tobs,
	}
	if b.prof.SparsePush {
		w.ef = newErrorFeedback(cfg.TopKRatio, client.Keys(), cfg.Metrics)
	}
	if cfg.spans != nil {
		w.tracer = cfg.spans.Tracer(m, id)
		client.Trace(w.tracer)
	}
	if cached, _ := cfg.System.hotTable(); cached {
		// Unbounded staleness is negative in the spec and 0 to the cache.
		hot, err := cache.New(client, cfg.newOpt(), max(cfg.CacheSyncEvery, 0))
		if err != nil {
			return nil, err
		}
		hot.Instrument(cfg.Metrics)
		if w.tracer != nil {
			hot.Trace(w.tracer)
		}
		w.hot = hot
	}
	return w, nil
}

// nextBatch returns the next batch to train on: a queued prefetched batch if
// one exists, otherwise a fresh sample. The popped slot is nilled so the
// backing array does not pin replayed batches until the whole queue cycles.
func (w *worker) nextBatch() *sampler.Batch {
	if len(w.queued) > 0 {
		b := w.queued[0]
		w.queued[0] = nil
		w.queued = w.queued[1:]
		return b
	}
	return w.smp.Next()
}

// turn runs one scheduled worker turn: hot-table maintenance (HET-KG's
// prefetch and CPS/DPS build), drawing the next batch, and processBatch —
// all under one root "batch" span when this iteration is on the tracer's
// sampling grid. The root's context is installed on the PS client and the
// hot cache for the duration of the turn so their spans (RPCs, refreshes,
// simulated wire time) stitch to this batch; an unsampled turn threads
// zero values through the same calls at nil-check cost.
func (w *worker) turn() error {
	root := w.tracer.Root(w.iteration)
	if root.Valid() {
		w.beginSpan(root)
		defer w.endSpan()
	}
	if w.hot != nil && len(w.queued) == 0 {
		if err := w.prefetch(); err != nil {
			return err
		}
	}
	smp := root.Start(span.NNegSample)
	b := w.nextBatch()
	smp.EndAttrs(span.Attrs{Rows: int64(len(b.Pos)), Shard: span.NoShard})
	_, err := w.processBatch(b)
	return err
}

// prefetch refills the exhausted batch queue D iterations ahead (Algorithm
// 1) and constructs the hot table from the lookahead's census via filter
// (Algorithm 2): CPS builds once, from the first census, and keeps the table
// fixed; DPS rebuilds from every census — the rebuild is also a refresh, so
// DPS pays pull traffic for the new table's values here.
//
// Staleness synchronization (Algorithm 3 lines 8–9) needs no step of its
// own: the cache expires entries older than P at Get time and the worker
// re-pulls them with its ordinary batch pull, so refresh traffic is metered
// through the normal path and only rows that are actually used pay it.
func (w *worker) prefetch() error {
	cfg := w.cfg
	_, rebuild := cfg.System.hotTable()
	pre := cache.Prefetch(w.smp, cfg.CachePrefetchD)
	w.queued = pre.Batches
	if !rebuild && w.built {
		return nil
	}
	keys, err := cache.Filter(pre, cache.FilterConfig{
		Capacity:       cfg.cacheCapacity(),
		EntityFraction: cfg.EntityFraction,
		Heterogeneity:  !cfg.NoHeterogeneity,
	})
	if err != nil {
		return err
	}
	if err := w.hot.Build(keys, w.iteration); err != nil {
		return err
	}
	w.built = true
	return nil
}

// beginSpan installs root as the worker's current batch span and points the
// client and cache at it.
func (w *worker) beginSpan(root span.Active) {
	w.sp = root
	sc := root.Context()
	w.client.SetSpanContext(sc)
	if w.hot != nil {
		w.hot.SetSpanContext(sc)
	}
}

// endSpan closes the current batch span and detaches the client and cache.
func (w *worker) endSpan() {
	w.sp.End()
	w.sp = span.Active{}
	w.client.SetSpanContext(span.Context{})
	if w.hot != nil {
		w.hot.SetSpanContext(span.Context{})
	}
}

// shardScratch is one compute shard's private accumulation state. Shards
// never share scratch, so the parallel gradient pass needs no locks; the
// trainer merges shard results in fixed shard order afterwards.
type shardScratch struct {
	grads     *gradBuf
	sweep     model.Sweep
	negRows   [][]float32
	negScores []float32
	weights   []float32
	lossSum   float64
	pairs     int
}

// batchScratch is the worker-owned arena reused across batches: the batch's
// slot table, per-shard accumulators, the merged gradient buffer and its
// key-ordered output handed to the cache and the PS, and the miss lists of
// the gather step.
type batchScratch struct {
	entW, relW int
	tbl        slotTable
	shards     []*shardScratch
	merged     *gradBuf
	gradKeys   []ps.Key
	gradRows   [][]float32
	missing    []ps.Key
	missRows   [][]float32
}

// scratch lazily builds the arena (row widths are only known once the
// client exists).
func (w *worker) scratch() *batchScratch {
	if w.scr == nil {
		entW, relW := w.client.Width(ps.EntityKey(0)), w.client.Width(ps.RelationKey(0))
		w.scr = &batchScratch{entW: entW, relW: relW, merged: newGradBuf(max(entW, relW))}
	}
	return w.scr
}

// processBatch runs workflow steps 2–4 (§IV-B) for one mini-batch: gather
// rows (cache first, then PS), compute gradients, update cached copies and
// push all gradients to the PS. It returns the batch's mean pair loss.
func (w *worker) processBatch(b *sampler.Batch) (float64, error) {
	staleRows, err := w.gather(b)
	if err != nil {
		return 0, err
	}
	keys, grads, lossSum, pairs := w.compute(b)
	bufferedRows, err := w.update(keys, grads)
	if err != nil {
		return 0, err
	}
	w.iteration++
	o := w.obs
	o.iterations.Inc()
	o.pairs.Add(int64(pairs))
	if staleRows || bufferedRows {
		o.degradedBatches.Inc()
	}
	if pairs == 0 {
		return 0, nil
	}
	mean := lossSum / float64(pairs)
	w.lossSum += mean
	w.lossCount++
	// Keep the live endpoint's loss current even when no timeline emitter
	// refreshes the derived gauges. Workers overwrite each other in
	// scheduling order, which is deterministic.
	o.loss.Set(w.lossSum / float64(w.lossCount))
	return mean, nil
}

// gather is step 2: compile the batch into the slot table and load its
// rows — hot table first, parameter server for the rest, pulled into the
// table's slab. Serial: the hot cache is confined to the worker goroutine.
// stale reports that a shard outage forced some rows to be served from the
// cache past their refresh (degraded mode).
func (w *worker) gather(b *sampler.Batch) (stale bool, err error) {
	scr := w.scratch()
	tbl := &scr.tbl
	tbl.compile(b, scr.entW, scr.relW)
	lookup := w.sp.Start(span.NCacheLookup)
	missing, missRows := scr.missing[:0], scr.missRows[:0]
	for s, k := range tbl.keys {
		if w.hot != nil {
			if row, ok := w.hot.Get(k, w.iteration); ok {
				tbl.rows[s] = row
				continue
			}
		}
		missing = append(missing, k)
		missRows = append(missRows, tbl.rows[s])
	}
	scr.missing, scr.missRows = missing, missRows // keep the grown backing arrays for reuse
	lookup.EndAttrs(span.Attrs{Rows: int64(len(tbl.keys)), Shard: span.NoShard})
	if len(missing) == 0 {
		return false, nil
	}
	var staleServed []ps.Key
	if err := w.client.PullRows(missing, missRows); err != nil {
		var deg *ps.DegradedError
		if !errors.As(err, &deg) || !w.degradedEnabled() {
			return false, err
		}
		if staleServed, err = w.staleServe(deg); err != nil {
			return false, err
		}
		stale = true
	}
	if w.hot != nil {
		// Freshly pulled hot rows re-enter the table with a reset
		// staleness clock (the per-row synchronization of Alg. 3).
		// Stale-served rows keep their old clock: no fresh server value
		// landed, so their age must keep counting toward the bound.
		for i, k := range missing {
			if _, served := slices.BinarySearch(staleServed, k); !served {
				w.hot.Offer(k, missRows[i], w.iteration)
			}
		}
	}
	return stale, nil
}

// compute is step 3: forward + backward over the slot table's rows,
// returning the batch's merged gradients, in key order, with its summed
// loss and pair count.
//
// The pass runs on the parallel execution engine: the batch's positives
// split over the fixed batchShards grid, each shard accumulates into
// private scratch, and partial gradients and losses merge in shard order —
// deterministic at any RunConfig.Parallelism.
func (w *worker) compute(b *sampler.Batch) (keys []ps.Key, grads [][]float32, lossSum float64, pairs int) {
	scr := w.scratch()
	tbl := &scr.tbl
	n := len(tbl.keys)
	sp := w.sp.Start(span.NGradCompute)
	start := time.Now()
	shards := par.Shards(len(b.Pos), batchShards)
	for len(scr.shards) < len(shards) {
		scr.shards = append(scr.shards, &shardScratch{grads: newGradBuf(scr.merged.maxW)})
	}
	for s := range shards {
		sc := scr.shards[s]
		sc.grads.reset(n)
		sc.lossSum, sc.pairs = 0, 0
	}
	par.For(w.degree, len(shards), func(s int) {
		w.computeShard(scr.shards[s], tbl, b, shards[s])
	})

	// Ordered merge: shard partials combine in shard order, so each slot's
	// float sum does not depend on how shards were scheduled.
	merged := scr.merged
	merged.reset(n)
	for s := range shards {
		sc := scr.shards[s]
		for i, slot := range sc.grads.touched {
			g := sc.grads.rows[i]
			dst := merged.row(slot, len(g))
			vec.Add(dst, dst, g)
		}
		lossSum += sc.lossSum
		pairs += sc.pairs
	}
	keys, grads = scr.gradKeys[:0], scr.gradRows[:0]
	for slot, i := range merged.at {
		if i != 0 {
			keys = append(keys, tbl.keys[slot])
			grads = append(grads, merged.rows[i-1])
		}
	}
	scr.gradKeys, scr.gradRows = keys, grads
	elapsed := time.Since(start)
	sp.EndAttrs(span.Attrs{Rows: int64(pairs), Shard: span.NoShard})
	w.compTime += elapsed
	w.obs.comp.Observe(elapsed)
	return keys, grads, lossSum, pairs
}

// update is step 4: apply the gradients (grads[i] is keys[i]'s, keys
// ascending) to the cached copies, then push everything to the PS. The
// local copy gets the raw gradient; only the pushed exchange is sparsified
// (error feedback re-sends the dropped mass later). buffered reports that
// a shard outage deferred some rows to the replay buffer (degraded mode).
func (w *worker) update(keys []ps.Key, grads [][]float32) (buffered bool, err error) {
	if w.hot != nil {
		for i, k := range keys {
			w.hot.Update(k, grads[i])
		}
	}
	if w.ef != nil {
		for i, k := range keys {
			w.ef.Sparsify(k, grads[i])
		}
	}
	if err := w.replayPushes(); err != nil {
		return false, err
	}
	if err := w.client.PushRows(keys, grads); err != nil {
		var deg *ps.DegradedError
		if !errors.As(err, &deg) || !w.degradedEnabled() {
			return false, err
		}
		if err := w.bufferPushes(deg.Keys, keys, grads, deg.Err); err != nil {
			return false, err
		}
		buffered = true
	}
	return buffered, nil
}

// computeShard scores and differentiates the positives in r against their
// negatives, accumulating gradients and loss into sc. It reads the slot
// table and the model/loss concurrently with other shards (all immutable
// during the pass) and writes only shard-private state.
func (w *worker) computeShard(sc *shardScratch, tbl *slotTable, b *sampler.Batch, r par.Range) {
	mdl, loss := w.cfg.model, w.cfg.loss
	for i := r.Begin; i < r.End; i++ {
		ns := b.Neg[i]
		if len(ns.Entities) == 0 {
			continue
		}
		hs, rs, ts := tbl.pos[i][0], tbl.pos[i][1], tbl.pos[i][2]
		h, rel, t := tbl.rows[hs], tbl.rows[rs], tbl.rows[ts]
		posScore := mdl.Score(h, rel, t)
		gh := sc.grads.row(hs, len(h))
		gr := sc.grads.row(rs, len(rel))
		gt := sc.grads.row(ts, len(t))
		// The chunk's negatives are one sweep over scattered rows: the
		// positive's known half is hoisted once, and the candidates are
		// scored a block at a time, with m.Score's bits (Sweep.ScoreEach).
		negSlots := tbl.ents[tbl.negs[i][0]:tbl.negs[i][1]]
		negRows := sc.negRows[:0]
		for _, s := range negSlots {
			negRows = append(negRows, tbl.rows[s])
		}
		sc.negRows = negRows
		if ns.CorruptHead {
			sc.sweep.Reset(mdl, t, rel, false)
		} else {
			sc.sweep.Reset(mdl, h, rel, true)
		}
		n := len(negSlots)
		negScores, weights := slices.Grow(sc.negScores[:0], n)[:n], slices.Grow(sc.weights[:0], n)[:n]
		sc.negScores, sc.weights = negScores, weights
		sc.sweep.ScoreEach(negScores, negRows)
		negativeWeightsInto(weights, negScores, float32(w.cfg.AdversarialTemp))
		// The positive triple's gradient is linear in the loss derivative,
		// so the per-negative coefficients sum into one Grad call instead
		// of |negatives| passes over (h, r, t).
		var dPosTotal float32
		for j, neRow := range negRows {
			l, dPos, dNeg := loss.PosNeg(posScore, negScores[j])
			sc.lossSum += float64(l) * float64(weights[j]) * float64(len(negSlots))
			sc.pairs++
			scale := weights[j]
			dPosTotal += dPos * scale
			if dNeg != 0 {
				gn := sc.grads.row(negSlots[j], len(neRow))
				if ns.CorruptHead {
					mdl.Grad(neRow, rel, t, dNeg*scale, gn, gr, gt)
				} else {
					mdl.Grad(h, rel, neRow, dNeg*scale, gh, gr, gn)
				}
			}
		}
		if dPosTotal != 0 {
			mdl.Grad(h, rel, t, dPosTotal, gh, gr, gt)
		}
	}
}

// negativeWeightsInto fills out (same length as scores) with the
// per-negative gradient weights: uniform 1/n when temp = 0, or the
// self-adversarial softmax(temp · score) otherwise (hard negatives — those
// the model scores highest — get more weight).
func negativeWeightsInto(out, scores []float32, temp float32) {
	n := len(scores)
	if n == 0 {
		return
	}
	if temp <= 0 {
		u := 1 / float32(n)
		for i := range out {
			out[i] = u
		}
		return
	}
	maxS := slices.Max(scores)
	var sum float64
	for i, s := range scores {
		e := math.Exp(float64(temp * (s - maxS)))
		out[i] = float32(e)
		sum += e
	}
	for i := range out {
		out[i] = float32(float64(out[i]) / sum)
	}
}
