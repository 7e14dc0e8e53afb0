package train

import (
	"math/rand"
	"sort"
	"time"

	"hetkg/internal/kg"
	"hetkg/internal/netsim"
	"hetkg/internal/opt"
	"hetkg/internal/vec"
)

// trainPBG runs the PyTorch-BigGraph-style baseline (§III-B): entities are
// divided into disjoint buckets stored on a shared filesystem; workers
// acquire (source, destination) bucket pairs from a lock server, load both
// entity partitions (parameters plus optimizer state), train the pair's
// edges with locally updated entity embeddings, synchronize relation
// embeddings as *dense* parameters through a shared server after every
// pair, and save the partitions back.
//
// The cost structure reproduces PBG's documented weaknesses: bucket
// swapping moves entire partitions per pair, dense relation sync scales
// with the relation-matrix size (ruinous on many-relation graphs like
// FB15k), and the lock server limits parallelism because concurrent pairs
// must be bucket-disjoint (§VI-C.2's flat speedup curve).
func trainPBG(cfg *Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))

	entDim := cfg.Model.EntityDim(cfg.Dim)
	relDim := cfg.Model.RelationDim(cfg.Dim)
	st := &pbgState{
		cfg:     cfg,
		ents:    vec.NewMatrix(cfg.Train.NumEntity, entDim),
		rels:    vec.NewMatrix(cfg.Train.NumRel, relDim),
		entOpt:  cfg.NewOptimizer(),
		relOpt:  cfg.NewOptimizer(),
		rng:     rng,
		relGrad: vec.NewMatrix(cfg.Train.NumRel, relDim),
		gh:      make([]float32, entDim),
		gt:      make([]float32, entDim),
		gn:      make([]float32, entDim),
	}
	st.ents.InitKGE(rng)
	st.rels.InitUniform(rng, 6/float32sqrt(relDim))

	// Bucket entities uniformly. PBG uses at least as many buckets as
	// trainers so pairs can be disjoint.
	// PBG requires at least 2× as many buckets as trainers so the lock
	// server can hand out disjoint pairs.
	numWorkers := cfg.Machines * cfg.WorkersPerMachine
	numBuckets := 2 * numWorkers
	if numBuckets < 2 {
		numBuckets = 2
	}
	st.bucketOf = make([]int32, cfg.Train.NumEntity)
	for e := range st.bucketOf {
		st.bucketOf[e] = int32(rng.Intn(numBuckets))
	}
	st.bucketSize = make([]int, numBuckets)
	for _, b := range st.bucketOf {
		st.bucketSize[b]++
	}
	// Group edges by bucket pair.
	pairEdges := make(map[[2]int32][]kg.Triple)
	for _, tr := range cfg.Train.Triples {
		key := [2]int32{st.bucketOf[tr.Head], st.bucketOf[tr.Tail]}
		pairEdges[key] = append(pairEdges[key], tr)
	}
	// Deterministic pair order.
	pairs := make([][2]int32, 0, len(pairEdges))
	for p := range pairEdges {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	// Bucket members for in-pair negative corruption.
	members := make([][]kg.EntityID, numBuckets)
	for e, b := range st.bucketOf {
		members[b] = append(members[b], kg.EntityID(e))
	}

	res := &Result{System: string(cfg.System), Metrics: cfg.Metrics}
	em, err := newTimeline(cfg, res.System)
	if err != nil {
		return nil, err
	}
	var cum time.Duration
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		var pairTimes []pairCost
		var lossSum float64
		var lossN int
		for _, pk := range pairs {
			edges := pairEdges[pk]
			comp, comm, loss := st.trainPair(pk, edges, members)
			pairTimes = append(pairTimes, pairCost{pk, comp, comm})
			lossSum += loss
			lossN++
		}
		comp, comm := schedulePairs(pairTimes, numWorkers)
		stat := EpochStat{Epoch: epoch, Comp: comp, Comm: comm}
		if lossN > 0 {
			stat.Loss = lossSum / float64(lossN)
		}
		cum += stat.Total()
		stat.CumTime = cum
		if cfg.EvalEvery > 0 && len(cfg.Valid) > 0 && epoch%cfg.EvalEvery == 0 {
			ev, err := evalNow(cfg, st.ents, st.rels)
			if err != nil {
				return nil, err
			}
			stat.MRR = ev.MRR
		}
		// schedulePairs splits a makespan that includes measured
		// computation, so PBG's communication time is wall-clock too.
		if err := emitEpoch(em, 0, stat, true); err != nil {
			return nil, err
		}
		res.Epochs = append(res.Epochs, stat)
	}

	res.Entities, res.Relations = st.ents, st.rels
	if cfg.EvalEvery > 0 && len(cfg.Valid) > 0 {
		ev, err := evalNow(cfg, st.ents, st.rels)
		if err != nil {
			return nil, err
		}
		res.Final = ev
	}
	for _, e := range res.Epochs {
		res.Comp += e.Comp
		res.Comm += e.Comm
	}
	res.Traffic = st.traffic
	return res, nil
}

// pbgState is the PBG trainer's world: full embedding tables standing in
// for the shared filesystem, shared optimizers, and traffic accounting.
type pbgState struct {
	cfg        *Config
	ents, rels *vec.Matrix
	entOpt     opt.Optimizer
	relOpt     opt.Optimizer
	rng        *rand.Rand
	bucketOf   []int32
	bucketSize []int
	relGrad    *vec.Matrix // scratch: per-pair dense relation gradient
	gh, gt, gn []float32   // scratch: per-edge entity gradients, zeroed per use
	traffic    netsim.Snapshot
}

// pairCost is one bucket pair's simulated execution cost.
type pairCost struct {
	pair       [2]int32
	comp, comm time.Duration
}

// trainPair processes one bucket pair: charge the swap traffic, train its
// edges in mini-batches with in-bucket negatives, and charge the dense
// relation synchronization.
func (st *pbgState) trainPair(pk [2]int32, edges []kg.Triple, members [][]kg.EntityID) (comp, comm time.Duration, meanLoss float64) {
	cfg := st.cfg
	entDim := st.ents.Dim
	relDim := st.rels.Dim

	// Bucket swap: load parameters + AdaGrad state for both buckets, and
	// save them back afterwards (2x each way). Same-bucket pairs move one
	// bucket.
	rows := st.bucketSize[pk[0]]
	if pk[1] != pk[0] {
		rows += st.bucketSize[pk[1]]
	}
	swapBytes := int64(rows) * int64(entDim) * 4 * 2 // params + optimizer state
	st.charge(4, swapBytes*2)                        // load + save

	// Dense relation sync: push the full relation gradient matrix and pull
	// fresh values (PBG treats relations as dense model weights).
	relBytes := int64(st.rels.Rows) * int64(relDim) * 4
	st.charge(2, relBytes*2)

	// Train the pair's edges.
	start := time.Now()
	for i := range st.relGrad.Data {
		st.relGrad.Data[i] = 0
	}
	negPool := members[pk[1]] // corrupt tails within the destination bucket
	if len(negPool) == 0 {
		negPool = members[pk[0]]
	}
	var lossSum float64
	pairsN := 0
	for _, tr := range edges {
		h := st.ents.Row(int(tr.Head))
		r := st.rels.Row(int(tr.Relation))
		t := st.ents.Row(int(tr.Tail))
		posScore := cfg.Model.Score(h, r, t)
		gh, gt := st.gh, st.gt
		vec.Zero(gh)
		vec.Zero(gt)
		gr := st.relGrad.Row(int(tr.Relation))
		scale := float32(1) / float32(cfg.NegPerPos)
		for n := 0; n < cfg.NegPerPos; n++ {
			ne := negPool[st.rng.Intn(len(negPool))]
			neRow := st.ents.Row(int(ne))
			negScore := cfg.Model.Score(h, r, neRow)
			loss, dPos, dNeg := cfg.Loss.PosNeg(posScore, negScore)
			lossSum += float64(loss)
			pairsN++
			if dPos != 0 {
				cfg.Model.Grad(h, r, t, dPos*scale, gh, gr, gt)
			}
			if dNeg != 0 {
				gn := st.gn
				vec.Zero(gn)
				cfg.Model.Grad(h, r, neRow, dNeg*scale, gn, gr, nil)
				st.entOpt.Apply(int(ne), neRow, gn)
			}
		}
		// Entities update locally and immediately (Hogwild-style threads
		// without synchronization, PBG step 3).
		st.entOpt.Apply(int(tr.Head), h, gh)
		st.entOpt.Apply(int(tr.Tail), t, gt)
	}
	// Apply accumulated relation gradients through the shared server.
	for rel := 0; rel < st.rels.Rows; rel++ {
		g := st.relGrad.Row(rel)
		if isZero(g) {
			continue
		}
		st.relOpt.Apply(rel, st.rels.Row(rel), g)
	}
	comp = time.Since(start)
	comm = cfg.CostModel.RemoteTime(6, swapBytes*2+relBytes*2)
	if pairsN > 0 {
		meanLoss = lossSum / float64(pairsN)
	}
	return comp, comm, meanLoss
}

// charge records shared-filesystem traffic (always remote: the shared FS
// sits across the network from every worker).
func (st *pbgState) charge(msgs, bytes int64) {
	st.traffic.RemoteMsgs += msgs
	st.traffic.RemoteBytes += bytes
}

// schedulePairs computes the epoch makespan under the lock-server
// constraint: a pair can run only when both its buckets are free, and at
// most numWorkers pairs run at once. Greedy list scheduling over the
// deterministic pair order.
func schedulePairs(costs []pairCost, numWorkers int) (comp, comm time.Duration) {
	if numWorkers < 1 {
		numWorkers = 1
	}
	workerFree := make([]time.Duration, numWorkers)
	bucketFree := map[int32]time.Duration{}
	var makespan time.Duration
	var compTotal, totalTotal time.Duration
	for _, pc := range costs {
		// Earliest-available worker.
		wi := 0
		for i := 1; i < numWorkers; i++ {
			if workerFree[i] < workerFree[wi] {
				wi = i
			}
		}
		start := workerFree[wi]
		if t := bucketFree[pc.pair[0]]; t > start {
			start = t
		}
		if t := bucketFree[pc.pair[1]]; t > start {
			start = t
		}
		dur := pc.comp + pc.comm
		end := start + dur
		workerFree[wi] = end
		bucketFree[pc.pair[0]] = end
		bucketFree[pc.pair[1]] = end
		if end > makespan {
			makespan = end
		}
		compTotal += pc.comp
		totalTotal += dur
	}
	if totalTotal == 0 {
		return 0, 0
	}
	// Split the makespan between comp and comm in proportion to the
	// aggregate mix, preserving both the critical path and the breakdown.
	compFrac := float64(compTotal) / float64(totalTotal)
	comp = time.Duration(float64(makespan) * compFrac)
	comm = makespan - comp
	return comp, comm
}

func isZero(x []float32) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

func float32sqrt(n int) float32 {
	x := float32(1)
	f := float32(n)
	for i := 0; i < 20; i++ {
		x = (x + f/x) / 2
	}
	return x
}
