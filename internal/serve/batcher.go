package serve

import (
	"sync"

	"hetkg/internal/kg"
	"hetkg/internal/knn"
	"hetkg/internal/metrics"
	"hetkg/internal/model"
	"hetkg/internal/par"
	"hetkg/internal/span"
	"hetkg/internal/vec"
)

// DefaultMaxBatch is the default cap on predictions coalesced into one
// candidate sweep.
const DefaultMaxBatch = 64

// DefaultMaxK is the default cap on a prediction's k.
const DefaultMaxK = 128

// sweepTile is how many candidate rows a worker scores per kernel call: a
// run short enough (64 KB of a 64-wide table) to still be in cache when the
// batch's next job scores it, long enough to amortize the call.
const sweepTile = 256

// job is one in-flight prediction. Jobs are pooled: done is a reusable
// buffered channel, out a reusable result buffer and sweep keeps its query
// buffer, so a request borrows and returns a job without allocating.
type job struct {
	sweep model.Sweep // the partial triple, prepared by the requester; read-only while queued
	k     int
	sc    span.Context
	out   []knn.Result
	done  chan struct{}
}

// batcher coalesces concurrent predictions into shared candidate sweeps —
// the group-commit pattern: while one sweep scans the entity table, newly
// arriving jobs queue, and the next sweep takes them all. Scoring j jobs
// against a tile of candidate rows while it is resident in cache amortizes
// the scan that dominates prediction cost, so batching raises throughput
// without a coalescing timer (an idle server runs a lone request
// immediately).
//
// The sweep fans out over persistent shard workers (fixed contiguous ranges
// from par.Shards; long-lived goroutines signaled by channel, so a sweep
// allocates nothing). Results are deterministic at any parallelism: each
// candidate's score carries the bits of model.Score (model.Sweep's
// contract), and the total order of knn.TopK (score desc, id asc) makes the
// merged top-k independent of sharding.
type batcher struct {
	ents     *vec.Matrix
	maxBatch int
	maxK     int
	jobs     chan *job
	pool     sync.Pool
	workers  []*sweepWorker
	cur      []*job // batch under sweep; written by dispatcher, read by workers (synchronized by start/done channels)
	final    []*knn.TopK
	spans    []span.Active
	tracer   *span.Tracer
	obs      *batchObs
	quit     chan struct{}
	wg       sync.WaitGroup
}

// batchObs holds the batcher's registry-backed series.
type batchObs struct {
	batches *metrics.Counter
	size    *metrics.Histogram
}

// sweepWorker owns one fixed shard of the candidate space, a private top-k
// selector per batch slot and one tile of scores.
type sweepWorker struct {
	rng    par.Range
	topks  []*knn.TopK
	scores [sweepTile]float32
	start  chan struct{}
	done   chan struct{}
}

// newBatcher starts the dispatcher and the shard workers. degree ≤ 1 runs
// sweeps inline on the dispatcher goroutine.
func newBatcher(ents *vec.Matrix, maxBatch, maxK, degree int) *batcher {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	if maxK <= 0 {
		maxK = DefaultMaxK
	}
	if degree > ents.Rows {
		degree = ents.Rows
	}
	if degree < 1 {
		degree = 1
	}
	b := &batcher{
		ents:     ents,
		maxBatch: maxBatch,
		maxK:     maxK,
		jobs:     make(chan *job, maxBatch),
		final:    make([]*knn.TopK, maxBatch),
		spans:    make([]span.Active, 0, maxBatch),
		quit:     make(chan struct{}),
	}
	b.pool.New = func() any {
		return &job{
			out:  make([]knn.Result, 0, maxK),
			done: make(chan struct{}, 1),
		}
	}
	for i := range b.final {
		b.final[i] = knn.NewTopK(maxK)
	}
	shards := par.Shards(ents.Rows, degree)
	b.workers = make([]*sweepWorker, len(shards))
	for w, rng := range shards {
		sw := &sweepWorker{
			rng:   rng,
			topks: make([]*knn.TopK, maxBatch),
			start: make(chan struct{}),
			done:  make(chan struct{}),
		}
		for i := range sw.topks {
			sw.topks[i] = knn.NewTopK(maxK)
		}
		b.workers[w] = sw
	}
	if len(b.workers) > 1 {
		for _, sw := range b.workers[1:] {
			b.wg.Add(1)
			go b.workerLoop(sw)
		}
	}
	b.wg.Add(1)
	go b.dispatch()
	return b
}

// instrument publishes serve.batches and serve.batch_size into reg.
func (b *batcher) instrument(reg *metrics.Registry) {
	b.obs = &batchObs{
		batches: reg.Counter(metrics.MServeBatches),
		size:    reg.Histogram(metrics.MServeBatchSize),
	}
}

// trace attaches the server's tracer for serve.sweep spans.
func (b *batcher) trace(t *span.Tracer) { b.tracer = t }

// get borrows a pooled job.
func (b *batcher) get() *job { return b.pool.Get().(*job) }

// put returns a job to the pool.
func (b *batcher) put(j *job) {
	j.sweep.Reset(nil, nil, nil, false) // drop the row references (they can pin a retired hot-tier slab), keep the query buffer
	j.sc = span.Context{}
	j.out = j.out[:0]
	b.pool.Put(j)
}

// submit enqueues a job; the caller waits on j.done.
func (b *batcher) submit(j *job) { b.jobs <- j }

// close stops the dispatcher and workers. Outstanding jobs are not waited
// for; callers stop submitting first.
func (b *batcher) close() {
	close(b.quit)
	b.wg.Wait()
}

func (b *batcher) dispatch() {
	defer b.wg.Done()
	batch := make([]*job, 0, b.maxBatch)
	for {
		select {
		case <-b.quit:
			return
		case j := <-b.jobs:
			batch = append(batch[:0], j)
		drain: // opportunistic coalescing: take whatever queued during the last sweep
			for len(batch) < b.maxBatch {
				select {
				case j2 := <-b.jobs:
					batch = append(batch, j2)
				default:
					break drain
				}
			}
			b.sweep(batch)
			for _, j := range batch {
				j.done <- struct{}{}
			}
		}
	}
}

// workerLoop runs one persistent shard worker.
func (b *batcher) workerLoop(sw *sweepWorker) {
	defer b.wg.Done()
	for {
		select {
		case <-b.quit:
			return
		case <-sw.start:
			sw.scan(b.ents, b.cur)
			sw.done <- struct{}{}
		}
	}
}

// scan scores the worker's candidate range against every job in the batch,
// a tile of rows at a time: each job's prepared sweep fills the tile's
// scores, and only a score that could enter the job's top-k is offered.
func (sw *sweepWorker) scan(ents *vec.Matrix, batch []*job) {
	for i, j := range batch {
		sw.topks[i].Reset(j.k)
	}
	for lo := sw.rng.Begin; lo < sw.rng.End; lo += sweepTile {
		hi := min(lo+sweepTile, sw.rng.End)
		rows := ents.Data[lo*ents.Dim : hi*ents.Dim]
		scores := sw.scores[:hi-lo]
		for i, j := range batch {
			j.sweep.Score(scores, rows)
			top := sw.topks[i]
			for c, s := range scores {
				if !top.Rejects(s) {
					top.Offer(kg.EntityID(lo+c), s)
				}
			}
		}
	}
}

// sweep runs one batched candidate sweep and writes each job's sorted
// results into its out buffer.
func (b *batcher) sweep(batch []*job) {
	if o := b.obs; o != nil {
		o.batches.Inc()
		o.size.ObserveInt(int64(len(batch)))
	}
	b.spans = b.spans[:0]
	for _, j := range batch {
		if sp := b.tracer.StartChild(j.sc, span.NServeSweep); sp.Valid() {
			b.spans = append(b.spans, sp)
		}
	}

	b.cur = batch
	if len(b.workers) > 1 {
		for _, sw := range b.workers[1:] {
			sw.start <- struct{}{}
		}
		b.workers[0].scan(b.ents, batch)
		for _, sw := range b.workers[1:] {
			<-sw.done
		}
	} else {
		b.workers[0].scan(b.ents, batch)
	}

	// Merge the per-shard partials in shard order; the knn.TopK total
	// order makes the outcome independent of the sharding.
	for i, j := range batch {
		f := b.final[i]
		f.Reset(j.k)
		for _, sw := range b.workers {
			for _, r := range sw.topks[i].Items() {
				f.Offer(r.ID, r.Score)
			}
		}
		j.out = f.Sorted(j.out)
	}

	for _, sp := range b.spans {
		sp.EndAttrs(span.Attrs{Rows: int64(b.ents.Rows), Shard: span.NoShard})
	}
}
