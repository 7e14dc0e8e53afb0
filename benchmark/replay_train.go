package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"hetkg"
	"hetkg/internal/cache"
	"hetkg/internal/model"
	"hetkg/internal/netsim"
	"hetkg/internal/opt"
	"hetkg/internal/par"
	"hetkg/internal/partition"
	"hetkg/internal/ps"
	"hetkg/internal/sampler"
	"hetkg/internal/vec"
)

// The traced replay drives a plain reference training loop assembled from
// each layer's exported API, with a benchmark-owned span around every call
// into a layer. It mirrors train.worker.processBatch step for step but is
// not that code: see README.md, "How the replay differs".

// Span layers. The iteration root's self time is loop glue and counts as
// unattributed.
const (
	layerReplay  = "replay"
	layerSampler = "sampler"
	layerCache   = "cache"
	layerClient  = "ps.client"
	layerTCP     = "ps.tcp"
	layerServer  = "ps.server"
	layerModel   = "model"
)

// gradShards mirrors train.batchShards: the fixed shard grid of the
// within-batch parallel gradient pass.
const gradShards = 32

// recordedReq is the key set of one transport request, kept so the
// ps.server and ps.codec passes can re-issue it in isolation.
type recordedReq struct {
	shard int
	keys  []ps.Key
}

// timedTransport decorates the worker↔shard transport: a span per request,
// the request's key set, and the payload bytes (8 per key, 4 per float32)
// that the real wire bytes are compared against.
type timedTransport struct {
	inner        ps.Transport
	rec          *recorder
	layer        string
	pulls        []recordedReq
	pushes       []recordedReq
	payloadBytes int64
}

func (t *timedTransport) Pull(shard int, req *ps.PullRequest) (*ps.PullResponse, error) {
	id := t.rec.begin(t.layer, "transport.pull")
	resp, err := t.inner.Pull(shard, req)
	t.rec.end(id)
	if err == nil {
		t.pulls = append(t.pulls, recordedReq{shard: shard, keys: append([]ps.Key(nil), req.Keys...)})
		t.payloadBytes += 8*int64(len(req.Keys)) + 4*int64(len(resp.Vals))
	}
	return resp, err
}

func (t *timedTransport) Push(shard int, req *ps.PushRequest) error {
	id := t.rec.begin(t.layer, "transport.push")
	err := t.inner.Push(shard, req)
	t.rec.end(id)
	if err == nil {
		t.pushes = append(t.pushes, recordedReq{shard: shard, keys: append([]ps.Key(nil), req.Keys...)})
		t.payloadBytes += 8*int64(len(req.Keys)) + 4*int64(len(req.Vals))
	}
	return err
}

func (t *timedTransport) Close() error { return t.inner.Close() }

// gradAcc is a keyed gradient accumulator over a grow-only row pool, the
// shape of train's gradBuf, so the replay's gradient pass allocates like
// the trainer's.
type gradAcc struct {
	m    map[ps.Key][]float32
	pool [][]float32
	used int
	maxW int
}

func newGradAcc(maxW int) *gradAcc { return &gradAcc{m: map[ps.Key][]float32{}, maxW: maxW} }

func (g *gradAcc) reset() {
	clear(g.m)
	g.used = 0
}

func (g *gradAcc) row(k ps.Key, w int) []float32 {
	if r, ok := g.m[k]; ok {
		return r
	}
	if g.used == len(g.pool) {
		g.pool = append(g.pool, make([]float32, g.maxW))
	}
	r := g.pool[g.used][:w]
	g.used++
	vec.Zero(r)
	g.m[k] = r
	return r
}

// replayWorker is one worker of the reference loop.
type replayWorker struct {
	smp       *sampler.Sampler
	client    *ps.Client
	hot       *cache.HotCache // nil on cacheless workloads
	queued    []*sampler.Batch
	iteration int
	rows      map[ps.Key][]float32
	missing   []ps.Key
	shards    []*gradAcc
	shardLoss []float64
	shardPair []int
	merged    *gradAcc
}

// trainReplay is a built replay cluster and everything measured on it.
type trainReplay struct {
	rec     *recorder
	tr      *timedTransport
	host    *shardHost
	cluster *ps.Cluster
	spec    ps.ClusterConfig
	workers []*replayWorker
	mdl     model.Model
	loss    model.Loss
	filter  cache.FilterConfig
	prefD   int
	codec   string

	genMS, partitionMS, edgeCut float64
	buildS                      float64 // partition, cluster, transport and workers: what hetkg.Run also does inside its timed wall
	wallS                       float64
	keysLooked, rowsUpdated     int64
	pairs                       int64
	epochLoss                   []float64
}

// buildTrainReplay assembles the workload's cluster from exported pieces,
// mirroring what core.Run and train.setupPS derive from the same RunConfig.
func buildTrainReplay(spec *trainSpec, seed int64) (*trainReplay, error) {
	in, err := prepareTrain(spec, seed, spec.ReplayEpochs)
	if err != nil {
		return nil, err
	}
	rc := in.rc
	// More defaults of core.RunConfig.defaults, which is unexported.
	const chunkSize, lr, entityFraction = 8, 0.1, 0.25
	train := in.split.Train
	rp := &trainReplay{genMS: in.genMS, codec: rc.Codec, prefD: rc.CachePrefetchD}
	if rp.mdl, err = model.New(rc.ModelName); err != nil {
		return nil, err
	}
	if rp.loss, err = model.NewLoss("logistic", 0); err != nil {
		return nil, err
	}
	partitioner, err := partition.New("metis", seed)
	if err != nil {
		return nil, err
	}
	buildStart := time.Now()
	part, err := partitioner.Partition(train, rc.Machines)
	if err != nil {
		return nil, err
	}
	rp.partitionMS = float64(time.Since(buildStart)) / 1e6
	rp.edgeCut = part.CutFraction(train)

	newOpt := func() opt.Optimizer {
		o, _ := opt.New("adagrad", lr) // "adagrad" is a registered name
		return o
	}
	rp.spec = ps.ClusterConfig{
		NumMachines: rc.Machines, EntityPart: part.EntityPart, NumRelations: in.graph.NumRel,
		EntityDim: rp.mdl.EntityDim(rc.Dim), RelationDim: rp.mdl.RelationDim(rc.Dim),
		NewOptimizer: newOpt, Seed: seed,
	}
	if rp.cluster, err = ps.NewCluster(rp.spec); err != nil {
		return nil, err
	}
	var inner ps.Transport
	layer := layerServer // the in-process transport calls the shard directly
	if spec.TCP {
		if rp.host, err = hostShards(rp.cluster.Servers); err != nil {
			return nil, err
		}
		if inner, err = ps.DialTCPLink(rp.host.addrs, rc.Codec, ps.LinkConfig{Seed: seed}); err != nil {
			rp.host.close()
			return nil, err
		}
		layer = layerTCP
	} else {
		inner = ps.NewInProc(rp.cluster)
		if rc.Codec != "" {
			if inner, err = ps.NewCodecTransport(inner, rp.cluster, rc.Codec, netsim.Default1Gbps()); err != nil {
				return nil, err
			}
		}
	}
	rp.rec = newRecorder(1 << 16)
	rp.tr = &timedTransport{inner: inner, rec: rp.rec, layer: layer}

	withCache := rc.System == hetkg.SystemHETKGC || rc.System == hetkg.SystemHETKGD
	if withCache {
		capacity := int(rc.CacheBudget * float64(in.graph.NumEntity+in.graph.NumRel))
		rp.filter = cache.FilterConfig{Capacity: max(capacity, 1), EntityFraction: entityFraction, Heterogeneity: true}
	}
	filter := in.split.AllTriples()
	maxW := max(rp.spec.EntityDim, rp.spec.RelationDim)
	for m, sub := range part.Subgraphs(train) {
		if sub.NumTriples() == 0 {
			continue // a machine with no triples contributes no worker
		}
		w := &replayWorker{rows: map[ps.Key][]float32{}, merged: newGradAcc(maxW)}
		if w.client, err = ps.NewClient(m, rp.cluster, rp.tr, nil); err != nil { // no netsim metering in the replay
			rp.close()
			return nil, err
		}
		w.smp, err = sampler.New(sampler.Config{
			BatchSize: rc.BatchSize, NegPerPos: rc.NegPerPos, ChunkSize: chunkSize,
			NumEntity: train.NumEntity, Filter: filter,
		}, sub, rand.New(rand.NewSource(seed+int64(m)*7919)))
		if err != nil {
			rp.close()
			return nil, err
		}
		if withCache {
			if w.hot, err = cache.New(w.client, newOpt(), rc.CacheSyncEvery); err != nil {
				rp.close()
				return nil, err
			}
		}
		rp.workers = append(rp.workers, w)
	}
	if len(rp.workers) == 0 {
		rp.close()
		return nil, fmt.Errorf("replay: no worker received any triples")
	}
	rp.buildS = time.Since(buildStart).Seconds()
	return rp, nil
}

func (rp *trainReplay) close() {
	rp.tr.Close()
	if rp.host != nil {
		rp.host.close()
	}
}

// run drives the workers round-robin, one batch per turn, for epochs passes
// over each worker's partition — the schedule of train.runPSTraining.
func (rp *trainReplay) run(epochs int) error {
	start := time.Now()
	for epoch := 0; epoch < epochs; epoch++ {
		maxIters := 0
		for _, w := range rp.workers {
			maxIters = max(maxIters, w.smp.IterationsPerEpoch())
		}
		var lossSum float64
		var batches int
		for it := 0; it < maxIters; it++ {
			for _, w := range rp.workers {
				if it >= w.smp.IterationsPerEpoch() {
					continue
				}
				loss, err := rp.turn(w)
				if err != nil {
					return err
				}
				lossSum += loss
				batches++
			}
		}
		rp.epochLoss = append(rp.epochLoss, lossSum/float64(batches))
	}
	rp.wallS = time.Since(start).Seconds()
	return nil
}

// turn is one worker turn: (HET-KG) prefetch + filter + build every D
// iterations, then sample → cache.get → ps.pull → cache.offer → grad →
// cache.update → ps.push. It returns the batch's mean pair loss.
func (rp *trainReplay) turn(w *replayWorker) (float64, error) {
	rec := rp.rec
	rec.trace++
	root := rec.begin(layerReplay, "iteration")
	defer rec.end(root)

	if w.hot != nil && len(w.queued) == 0 {
		// cache.Prefetch draws the next D batches itself, so on this
		// workload sampling time is part of cache.prefetch_filter.
		id := rec.begin(layerCache, "cache.prefetch_filter")
		pre := cache.Prefetch(w.smp, rp.prefD)
		keys, err := cache.Filter(pre, rp.filter)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		w.queued = pre.Batches
		id = rec.begin(layerCache, "cache.build")
		err = w.hot.Build(keys, w.iteration)
		rec.end(id)
		if err != nil {
			return 0, err
		}
	}

	var b *sampler.Batch
	id := rec.begin(layerSampler, "sampler.next")
	if len(w.queued) > 0 {
		b, w.queued = w.queued[0], w.queued[1:]
	} else {
		b = w.smp.Next()
	}
	ents, rels := b.DistinctIDs()
	rec.end(id)

	clear(w.rows)
	missing := w.missing[:0]
	if w.hot != nil {
		id = rec.begin(layerCache, "cache.get")
	}
	gather := func(k ps.Key) {
		if w.hot != nil {
			if row, ok := w.hot.Get(k, w.iteration); ok {
				w.rows[k] = row
				return
			}
		}
		missing = append(missing, k)
	}
	for _, e := range ents {
		gather(ps.EntityKey(e))
	}
	for _, r := range rels {
		gather(ps.RelationKey(r))
	}
	w.missing = missing
	if w.hot != nil {
		rec.end(id)
		rp.keysLooked += int64(len(ents) + len(rels))
	}

	if len(missing) > 0 {
		id = rec.begin(layerClient, "ps.pull")
		err := w.client.Pull(missing, w.rows)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		if w.hot != nil {
			id = rec.begin(layerCache, "cache.offer")
			for _, k := range missing {
				w.hot.Offer(k, w.rows[k], w.iteration)
			}
			rec.end(id)
		}
	}

	id = rec.begin(layerModel, "model.grad")
	lossSum, pairs := rp.grad(w, b)
	rec.end(id)
	rp.pairs += int64(pairs)

	if w.hot != nil {
		id = rec.begin(layerCache, "cache.update")
		for k, g := range w.merged.m {
			w.hot.Update(k, g)
		}
		rec.end(id)
		rp.rowsUpdated += int64(len(w.merged.m))
	}

	id = rec.begin(layerClient, "ps.push")
	err := w.client.Push(w.merged.m)
	rec.end(id)
	if err != nil {
		return 0, err
	}
	w.iteration++
	if pairs == 0 {
		return 0, nil
	}
	return lossSum / float64(pairs), nil
}

// grad scores and differentiates the batch over the fixed shard grid with
// par.For, each shard into private accumulators merged in shard order, and
// leaves the batch's gradient rows in w.merged.
func (rp *trainReplay) grad(w *replayWorker, b *sampler.Batch) (lossSum float64, pairs int) {
	ranges := par.Shards(len(b.Pos), gradShards)
	for len(w.shards) < len(ranges) {
		w.shards = append(w.shards, newGradAcc(w.merged.maxW))
		w.shardLoss = append(w.shardLoss, 0)
		w.shardPair = append(w.shardPair, 0)
	}
	par.For(par.Degree(0), len(ranges), func(s int) {
		acc := w.shards[s]
		acc.reset()
		w.shardLoss[s], w.shardPair[s] = rp.gradRange(w, acc, b, ranges[s])
	})
	w.merged.reset()
	for s := range ranges {
		for k, g := range w.shards[s].m {
			dst := w.merged.row(k, len(g))
			vec.Add(dst, dst, g)
		}
		lossSum += w.shardLoss[s]
		pairs += w.shardPair[s]
	}
	return lossSum, pairs
}

// gradRange is the reference form of train.worker.computeShard with uniform
// negative weights: model.Score for the positive and each negative,
// Loss.PosNeg per pair, model.Grad for every non-zero derivative.
func (rp *trainReplay) gradRange(w *replayWorker, acc *gradAcc, b *sampler.Batch, r par.Range) (lossSum float64, pairs int) {
	mdl := rp.mdl
	for i := r.Begin; i < r.End; i++ {
		pos, ns := b.Pos[i], b.Neg[i]
		if len(ns.Entities) == 0 {
			continue
		}
		h := w.rows[ps.EntityKey(pos.Head)]
		rel := w.rows[ps.RelationKey(pos.Relation)]
		t := w.rows[ps.EntityKey(pos.Tail)]
		gh := acc.row(ps.EntityKey(pos.Head), len(h))
		gr := acc.row(ps.RelationKey(pos.Relation), len(rel))
		gt := acc.row(ps.EntityKey(pos.Tail), len(t))
		posScore := mdl.Score(h, rel, t)
		weight := 1 / float32(len(ns.Entities))
		var dPosTotal float32
		for _, ne := range ns.Entities {
			neRow := w.rows[ps.EntityKey(ne)]
			var negScore float32
			if ns.CorruptHead {
				negScore = mdl.Score(neRow, rel, t)
			} else {
				negScore = mdl.Score(h, rel, neRow)
			}
			l, dPos, dNeg := rp.loss.PosNeg(posScore, negScore)
			lossSum += float64(l)
			pairs++
			dPosTotal += dPos * weight
			if dNeg != 0 {
				gn := acc.row(ps.EntityKey(ne), len(neRow))
				if ns.CorruptHead {
					mdl.Grad(neRow, rel, t, dNeg*weight, gn, gr, gt)
				} else {
					mdl.Grad(h, rel, neRow, dNeg*weight, gh, gr, gn)
				}
			}
		}
		if dPosTotal != 0 {
			mdl.Grad(h, rel, t, dPosTotal, gh, gr, gt)
		}
	}
	return lossSum, pairs
}

// syntheticGrads fills a gradient payload for keys: small, finite and
// deterministic, standing in for the recorded pushes' values (only their
// key sets are kept, or a replay would hold every gradient it ever sent).
func syntheticGrads(buf []float32, keys []ps.Key, widthOf func(ps.Key) int) []float32 {
	buf = buf[:0]
	for _, k := range keys {
		for j := 0; j < widthOf(k); j++ {
			buf = append(buf, 0.001*float32((int(k)+j)%7-3))
		}
	}
	return buf
}

// serverPass re-issues every recorded request directly against the shards
// of a fresh cluster: the time ps.Server.Pull / Push (and the optimizer
// under it) take with no client, codec or wire around them.
type serverPass struct {
	pullUS, pushUS []float64
	pushRows       int64
	totalS         float64
}

func (rp *trainReplay) serverPass() (serverPass, error) {
	var sp serverPass
	fresh, err := ps.NewCluster(rp.spec)
	if err != nil {
		return sp, err
	}
	for _, rq := range rp.tr.pulls {
		start := time.Now()
		if _, err := fresh.Servers[rq.shard].Pull(rq.keys); err != nil {
			return sp, fmt.Errorf("re-issuing pull: %w", err)
		}
		d := time.Since(start)
		sp.pullUS = append(sp.pullUS, float64(d)/1e3)
		sp.totalS += d.Seconds()
	}
	var vals []float32
	for _, rq := range rp.tr.pushes {
		srv := fresh.Servers[rq.shard]
		vals = syntheticGrads(vals, rq.keys, srv.Width)
		start := time.Now()
		if err := srv.Push(rq.keys, vals); err != nil {
			return sp, fmt.Errorf("re-issuing push: %w", err)
		}
		d := time.Since(start)
		sp.pushUS = append(sp.pushUS, float64(d)/1e3)
		sp.pushRows += int64(len(rq.keys))
		sp.totalS += d.Seconds()
	}
	return sp, nil
}

// codecPassLimit caps how many recorded requests of each kind the codec
// pass re-issues; a median needs no more.
const codecPassLimit = 2000

// codecPass re-issues recorded requests through ps.NewCodecTransport over
// the in-process transport and through the bare in-process transport, each
// on its own fresh cluster, and returns the per-request time difference:
// what the row codec costs with no socket involved.
func (rp *trainReplay) codecPass() (pullUS, pushUS []float64, err error) {
	bareCluster, err := ps.NewCluster(rp.spec)
	if err != nil {
		return nil, nil, err
	}
	codecCluster, err := ps.NewCluster(rp.spec)
	if err != nil {
		return nil, nil, err
	}
	bare := ps.NewInProc(bareCluster)
	profile := rp.codec
	if profile == "" {
		profile = ps.ProfileFP32
	}
	coded, err := ps.NewCodecTransport(ps.NewInProc(codecCluster), codecCluster, profile, netsim.Default1Gbps())
	if err != nil {
		return nil, nil, err
	}
	timed := func(f func() error) (float64, error) {
		start := time.Now()
		err := f()
		return float64(time.Since(start)) / 1e3, err
	}
	for _, rq := range rp.tr.pulls[:min(len(rp.tr.pulls), codecPassLimit)] {
		req := &ps.PullRequest{Keys: rq.keys}
		a, err := timed(func() error { _, err := bare.Pull(rq.shard, req); return err })
		if err != nil {
			return nil, nil, err
		}
		b, err := timed(func() error { _, err := coded.Pull(rq.shard, req); return err })
		if err != nil {
			return nil, nil, err
		}
		pullUS = append(pullUS, b-a)
	}
	var vals, vals2 []float32
	for _, rq := range rp.tr.pushes[:min(len(rp.tr.pushes), codecPassLimit)] {
		vals = syntheticGrads(vals, rq.keys, bareCluster.Servers[rq.shard].Width)
		vals2 = append(vals2[:0], vals...) // lossy codecs write decoded values back into the payload
		a, err := timed(func() error { return bare.Push(rq.shard, &ps.PushRequest{Keys: rq.keys, Vals: vals}) })
		if err != nil {
			return nil, nil, err
		}
		b, err := timed(func() error { return coded.Push(rq.shard, &ps.PushRequest{Keys: rq.keys, Vals: vals2}) })
		if err != nil {
			return nil, nil, err
		}
		pushUS = append(pushUS, b-a)
	}
	return pullUS, pushUS, nil
}

// replayTrain builds and runs the traced replay of a training workload,
// writes its spans and returns the per-layer metrics and checks.
func replayTrain(spec *trainSpec, seed int64, twinWallS float64, spansPath string) (map[string]float64, []check, error) {
	rp, err := buildTrainReplay(spec, seed)
	if err != nil {
		return nil, nil, err
	}
	defer rp.close()
	if err := rp.run(spec.ReplayEpochs); err != nil {
		return nil, nil, fmt.Errorf("replay loop: %w", err)
	}
	var tx, rx int64
	if rp.host != nil {
		rx, tx = rp.host.count.rx.Load(), rp.host.count.tx.Load() // shard rx is what the worker transmitted
	}
	spans := rp.rec.spans
	if err := writeJSONL(spansPath, spans); err != nil {
		return nil, nil, err
	}
	st := aggregate(spans)
	sp, err := rp.serverPass()
	if err != nil {
		return nil, nil, err
	}
	codecPullUS, codecPushUS, err := rp.codecPass()
	if err != nil {
		return nil, nil, err
	}

	wallNS := rp.wallS * 1e9
	busy := map[string]float64{}
	for layer, ns := range st.layerSelfNS {
		busy[layer] = float64(ns) / wallNS
	}
	if rp.host != nil {
		// Over TCP the shard works while the worker waits inside the
		// round trip, so the isolated shard time is carved out of it.
		busy[layerServer] = sp.totalS / rp.wallS
		busy[layerTCP] -= busy[layerServer]
	}
	out := map[string]float64{
		"dataset.generate_ms":      rp.genMS,
		"partition.partition_ms":   rp.partitionMS,
		"partition.edge_cut_ratio": rp.edgeCut,

		"sampler.next_us_p50": pct(st.durUS["sampler.next"], 50),
		"sampler.busy_share":  busy[layerSampler],
		"sampler.batches":     float64(len(st.durUS["sampler.next"])),

		"cache.busy_share": busy[layerCache],

		"ps.client.pull_self_us_p50": pct(st.selfUS["ps.pull"], 50),
		"ps.client.push_self_us_p50": pct(st.selfUS["ps.push"], 50),
		"ps.client.busy_share":       busy[layerClient],

		"ps.server.pull_us_p50":  pct(sp.pullUS, 50),
		"ps.server.apply_us_p50": pct(sp.pushUS, 50),
		"ps.server.busy_share":   busy[layerServer],

		"ps.codec.pull_overhead_us_p50": pct(codecPullUS, 50),
		"ps.codec.push_overhead_us_p50": pct(codecPushUS, 50),

		"model.grad_ms_per_batch_p50": pct(st.durUS["model.grad"], 50) / 1e3,
		"model.busy_share":            busy[layerModel],

		// hetkg.Run partitions and builds its cluster inside the wall the
		// twin measured, so the replay's build time is counted too.
		"trace.overhead_pct": (rp.buildS + rp.wallS - twinWallS) / twinWallS * 100,
	}
	if sp.pushRows > 0 {
		out["ps.server.apply_ns_per_row"] = sum(sp.pushUS) * 1e3 / float64(sp.pushRows)
	}
	if rp.pairs > 0 {
		out["model.ns_per_pair"] = sum(st.durUS["model.grad"]) * 1e3 / float64(rp.pairs)
	}
	if rp.keysLooked > 0 {
		out["cache.get_ns_per_key"] = sum(st.durUS["cache.get"]) * 1e3 / float64(rp.keysLooked)
		out["cache.update_ns_per_row"] = sum(st.durUS["cache.update"]) * 1e3 / float64(rp.rowsUpdated)
		// Self time: the build's own work, without the pull it waits for.
		out["cache.build_ms_p50"] = pct(st.selfUS["cache.build"], 50) / 1e3
		out["cache.prefetch_filter_ms_p50"] = pct(st.durUS["cache.prefetch_filter"], 50) / 1e3
	}
	if rp.host != nil {
		out["ps.tcp.pull_rtt_us_p50"] = pct(st.durUS["transport.pull"], 50)
		out["ps.tcp.pull_rtt_us_p99"] = pct(st.durUS["transport.pull"], 99)
		out["ps.tcp.push_rtt_us_p50"] = pct(st.durUS["transport.push"], 50)
		out["ps.tcp.push_rtt_us_p99"] = pct(st.durUS["transport.push"], 99)
		out["ps.tcp.busy_share"] = busy[layerTCP]
		out["ps.tcp.bytes_tx"] = float64(tx)
		out["ps.tcp.bytes_rx"] = float64(rx)
		out["ps.tcp.wire_over_payload"] = float64(tx+rx) / float64(rp.tr.payloadBytes)
	}
	attributed := 0.0
	for _, layer := range []string{layerSampler, layerCache, layerClient, layerTCP, layerServer, layerModel} {
		attributed += busy[layer]
	}
	out["trace.unattributed_share"] = 1 - attributed

	checks := lossChecks(rp.epochLoss)
	for i := range checks {
		checks[i].Name = "replay_" + checks[i].Name
	}
	checks = append(checks, check{Name: "replay_spans_written", OK: len(spans) > 0,
		Detail: fmt.Sprintf("%d spans in %s", len(spans), spansPath)})
	if spec.TCP {
		checks = append(checks, check{Name: "replay_crossed_socket", OK: tx+rx > 0,
			Detail: fmt.Sprintf("%d bytes to shards, %d back", tx, rx)})
	}
	share := 1 - out["trace.unattributed_share"]
	checks = append(checks, check{Name: "replay_busy_shares_account_for_wall", OK: share >= 0.9 && share <= 1.0+1e-9 && !math.IsNaN(share),
		Detail: fmt.Sprintf("layers' busy_share sum to %.4f of replay wall", share)})
	return out, checks, nil
}
