package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"hetkg"
	"hetkg/internal/kg"
	"hetkg/internal/metrics"
	"hetkg/internal/ps"
)

// Quality scoring of a trained model: filtered MRR over the first
// evalTriples validation triples against evalCandidates sampled corruptions,
// the protocol hetkg.Run itself uses for its per-epoch validation — but over
// 2000 triples where the trainer takes 300, because across seeds the
// sampling noise of 300 alone spread the MRR by 8-11 % of its median.
const (
	evalTriples    = 2000
	evalCandidates = 100
)

// trainInputs are the generated inputs of one training round.
type trainInputs struct {
	rc    hetkg.RunConfig
	graph *hetkg.Graph
	split kg.Split
	genMS float64
}

// prepareTrain generates the workload's graph from seed and fills in the run
// configuration. Training only is timed: EvalEvery -1 turns the trainer's
// own validation off, and quality is scored afterwards.
func prepareTrain(spec *trainSpec, seed int64, epochs int) (*trainInputs, error) {
	rc := spec.Config
	rc.Seed = seed
	rc.Epochs = epochs
	rc.EvalEvery = -1
	// Spelled out because the replay needs them too; hetkg.Run would fill
	// in the same values (core.RunConfig.defaults).
	if rc.ModelName == "" {
		rc.ModelName = "transe"
	}
	if rc.NegPerPos == 0 {
		rc.NegPerPos = 8
	}
	start := time.Now()
	g, ok := hetkg.DatasetByName(rc.Dataset, rc.Scale, seed)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", rc.Dataset)
	}
	genMS := float64(time.Since(start)) / 1e6
	rc.Graph = g
	// The same split hetkg.Run derives internally (core.Run).
	sp, err := kg.SplitTriples(g, rand.New(rand.NewSource(seed+17)), 0.05, 0.05)
	if err != nil {
		return nil, err
	}
	return &trainInputs{rc: rc, graph: g, split: sp, genMS: genMS}, nil
}

// trainRound is what one untraced round measured.
type trainRound struct {
	setupS, wallS   float64
	peakRSSMB       float64
	iters, pairs    int64
	wireBytes       int64 // real socket bytes (TCP) or metered payload bytes (in-process)
	losses          []float64
	mrr             float64
	evalTriplesPerS float64
	rt              runtimeDelta
	reg             *metrics.Registry
	err             error
}

// runTrainRound sets the workload up from scratch, times one hetkg.Run of
// the fixed work, tears the shards down and scores the trained model.
func runTrainRound(spec *trainSpec, seed int64, epochs int) *trainRound {
	r := &trainRound{reg: metrics.NewRegistry()}
	resetPeakRSS()
	defer func() {
		rss, err := peakRSSMB()
		if err != nil && r.err == nil {
			r.err = err
		}
		r.peakRSSMB = rss
	}()
	setupStart := time.Now()
	in, err := prepareTrain(spec, seed, epochs)
	if err != nil {
		r.err = err
		return r
	}
	rc := in.rc
	rc.Metrics = r.reg
	var host *shardHost
	if spec.TCP {
		shards := make([]*ps.Server, rc.Machines)
		for m := range shards {
			if shards[m], err = hetkg.BuildShard(rc, m); err != nil {
				r.err = err
				return r
			}
			shards[m].Instrument(r.reg) // ps.server.* row counters, as cmd/hetkg-ps publishes them
		}
		if host, err = hostShards(shards); err != nil {
			r.err = err
			return r
		}
		defer host.close()
		rc.ShardAddrs = host.addrs
	}
	r.setupS = time.Since(setupStart).Seconds()

	probe := startRuntimeProbe()
	start := time.Now()
	res, err := hetkg.Run(rc)
	r.wallS = time.Since(start).Seconds()
	r.rt = probe.stop()
	r.iters = r.reg.Counter(metrics.MTrainIterations).Value()
	r.pairs = r.reg.Counter(metrics.MTrainPairs).Value()
	if host != nil {
		r.wireBytes = host.count.total()
	} else {
		r.wireBytes = r.reg.Counter(metrics.MPSBytesTx).Value() + r.reg.Counter(metrics.MPSBytesRx).Value()
	}
	if err != nil {
		r.err = fmt.Errorf("hetkg.Run: %w", err)
		return r
	}
	for _, e := range res.Epochs {
		r.losses = append(r.losses, e.Loss)
	}

	mdl, err := hetkg.NewModel(rc.ModelName)
	if err != nil {
		r.err = err
		return r
	}
	valid := in.split.Valid.Triples
	if len(valid) > evalTriples {
		valid = valid[:evalTriples]
	}
	evalStart := time.Now()
	ev, err := hetkg.Evaluate(hetkg.EvalConfig{
		Model: mdl, Entities: res.Entities, Relations: res.Relations,
		Filter: in.split.AllTriples(), NumCandidates: evalCandidates, Seed: seed + 1000,
	}, valid)
	if err != nil {
		r.err = fmt.Errorf("scoring the trained model: %w", err)
		return r
	}
	r.evalTriplesPerS = float64(len(valid)) / time.Since(evalStart).Seconds()
	r.mrr = ev.MRR
	return r
}

// lossChecks are the training correctness checks on one round's losses.
func lossChecks(losses []float64) []check {
	finite := len(losses) > 0
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			finite = false
		}
	}
	cs := []check{{Name: "loss_finite", OK: finite, Detail: fmt.Sprintf("epoch losses %v", losses)}}
	if len(losses) >= 2 {
		first, last := losses[0], losses[len(losses)-1]
		cs = append(cs, check{Name: "loss_decreases", OK: last < first,
			Detail: fmt.Sprintf("first epoch %.6f, last epoch %.6f", first, last)})
	}
	return cs
}
