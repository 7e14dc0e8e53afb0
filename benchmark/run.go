package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"

	"hetkg/internal/metrics"
)

// check is one correctness check of a run; a failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is what one child process reports for one workload: the untraced
// end-to-end metrics, or (Trace) the per-layer metrics of the replay.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Checks    []check            `json:"checks"`
	Metrics   map[string]float64 `json:"metrics"`
	Info      map[string]any     `json:"info"`
}

// pinned are the seed-42 quality values a training workload must reproduce:
// final_loss within 2 % and final_mrr within 0.02. EpochLosses feed the
// informational loss_bit_exact flag.
type pinned struct {
	FinalLoss   float64   `json:"final_loss"`
	FinalMRR    float64   `json:"final_mrr"`
	EpochLosses []float64 `json:"epoch_losses"`
}

//go:embed baseline.json
var baselineJSON []byte

// baseline is benchmark/baseline.json: the pinned quality values and the
// first numbers measured on the box that defined the benchmark.
type baseline struct {
	Seed   int64             `json:"seed"`
	Pinned map[string]pinned `json:"pinned"`
}

func loadBaseline() (baseline, error) {
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return b, fmt.Errorf("baseline.json: %w", err)
	}
	return b, nil
}

// runOptions select what a child measures.
type runOptions struct {
	seed    int64
	seconds float64 // rounds repeat until this much timed work has run
	trace   bool
	short   bool
	outDir  string
}

// runWorkload measures one workload in this process.
func runWorkload(w workload, o runOptions) *result {
	res := &result{Workload: w.Name, Trace: o.trace, Seed: o.seed, Metrics: map[string]float64{},
		Info: map[string]any{"gomaxprocs": runtime.GOMAXPROCS(0)}}
	var err error
	switch {
	case w.Train != nil && !o.trace:
		err = trainEndToEnd(res, w, o)
	case w.Train != nil:
		err = trainLayers(res, w, o)
	case !o.trace:
		err = serveEndToEnd(res, w, o)
	default:
		err = serveLayers(res, w, o)
	}
	if err != nil {
		res.Checks = append(res.Checks, check{Name: "run_completed", OK: false, Detail: err.Error()})
		if res.Attempted == 0 {
			res.Attempted, res.Failed = 1, 1
		}
	}
	res.Correct = res.Failed == 0
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	return res
}

// trainEndToEnd repeats untraced rounds of the fixed work until o.seconds of
// timed training has run, and reports medians over the rounds.
func trainEndToEnd(res *result, w workload, o runOptions) error {
	spec := w.Train
	var rounds []*trainRound
	var timed float64
	var itersPerRound int64
	for len(rounds) == 0 || (timed < o.seconds && !o.short) {
		r := runTrainRound(spec, o.seed, spec.Epochs)
		if r.err != nil {
			// A run error fails every iteration the round had left.
			expected := max(itersPerRound, r.iters+1)
			res.Attempted += expected
			res.Failed += expected - r.iters
			return fmt.Errorf("round %d: %w", len(rounds)+1, r.err)
		}
		itersPerRound = r.iters
		res.Attempted += r.iters
		timed += r.wallS
		rounds = append(rounds, r)
	}
	first := rounds[0]
	var setup, thr, cpu, wire, rss []float64
	deterministic := true
	for _, r := range rounds {
		setup = append(setup, r.setupS)
		rss = append(rss, r.peakRSSMB)
		thr = append(thr, float64(r.pairs)/r.wallS)
		cpu = append(cpu, r.rt.cpuS*1e6/float64(r.pairs))
		wire = append(wire, float64(r.wireBytes)/float64(r.pairs))
		deterministic = deterministic && r.iters == first.iters && r.pairs == first.pairs &&
			r.mrr == first.mrr && slices.Equal(r.losses, first.losses)
	}
	finalLoss := first.losses[len(first.losses)-1]
	res.Metrics = map[string]float64{
		"setup_s":             median(setup),
		"throughput_per_s":    median(thr),
		"cpu_us_per_unit":     median(cpu),
		"wire_bytes_per_unit": median(wire),
		"peak_rss_mb":         median(rss),
		"quality":             first.mrr,
		"final_loss":          finalLoss,
	}
	res.Info["rounds"] = len(rounds)
	res.Info["epochs_per_round"] = spec.Epochs
	res.Info["iterations_per_round"] = first.iters
	res.Info["pairs_per_round"] = first.pairs
	res.Info["epoch_losses"] = first.losses
	res.Info["timed_s"] = timed

	res.Checks = append(res.Checks, lossChecks(first.losses)...)
	res.Checks = append(res.Checks, check{Name: "rounds_deterministic", OK: deterministic,
		Detail: fmt.Sprintf("%d rounds from one seed gave identical iterations, pairs, epoch losses and MRR", len(rounds))})
	if spec.TCP {
		res.Checks = append(res.Checks, check{Name: "crossed_socket", OK: first.wireBytes > 0,
			Detail: fmt.Sprintf("%d bytes through the loopback shard listeners in round 1", first.wireBytes)})
	}
	return pinnedChecks(res, w.Name, o, first.losses, first.mrr)
}

// pinnedChecks compares a seed-42 full-size run against baseline.json.
func pinnedChecks(res *result, name string, o runOptions, losses []float64, mrr float64) error {
	base, err := loadBaseline()
	if err != nil {
		return err
	}
	pin, ok := base.Pinned[name]
	if !ok || o.seed != base.Seed || o.short {
		return nil
	}
	finalLoss := losses[len(losses)-1]
	res.Checks = append(res.Checks,
		check{Name: "final_loss_pinned", OK: math.Abs(finalLoss-pin.FinalLoss) <= 0.02*pin.FinalLoss,
			Detail: fmt.Sprintf("final_loss %.6f, pinned %.6f ± 2%%", finalLoss, pin.FinalLoss)},
		check{Name: "final_mrr_pinned", OK: math.Abs(mrr-pin.FinalMRR) <= 0.02,
			Detail: fmt.Sprintf("final_mrr %.6f, pinned %.6f ± 0.02", mrr, pin.FinalMRR)})
	res.Info["loss_bit_exact"] = slices.Equal(losses, pin.EpochLosses)
	return nil
}

// counterRatio returns a/b from two registry counters, 0 when b is 0.
func counterRatio(reg *metrics.Registry, a, b string) float64 {
	den := reg.Counter(b).Value()
	if den == 0 {
		return 0
	}
	return float64(reg.Counter(a).Value()) / float64(den)
}

// runtimeLayer is the runtime layer's share of an untraced timed phase.
func runtimeLayer(m map[string]float64, rt runtimeDelta, ops int64) {
	m["runtime.alloc_bytes_per_iter"] = float64(rt.allocBytes) / float64(ops)
	m["runtime.mallocs_per_iter"] = float64(rt.mallocs) / float64(ops)
	if rt.cpuS > 0 {
		m["runtime.gc_cpu_share"] = rt.gcCPUS / rt.cpuS
	}
}

// trainLayers runs the untraced twin of the replay (same epochs, tracing
// off: the source of the counters and of trace.overhead_pct) and then the
// traced replay.
func trainLayers(res *result, w workload, o runOptions) error {
	spec := w.Train
	twin := runTrainRound(spec, o.seed, spec.ReplayEpochs)
	if twin.err != nil {
		return fmt.Errorf("untraced twin: %w", twin.err)
	}
	res.Attempted = twin.iters
	reg := twin.reg
	m := res.Metrics
	c := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	if hits, misses := c(metrics.MCacheHits), c(metrics.MCacheMisses); hits+misses > 0 {
		m["cache.hit_ratio"] = hits / (hits + misses) // useful ÷ attempts
	}
	m["cache.refresh_rows"] = c(metrics.MCacheRefreshRows)
	m["ps.client.pull_rpcs"] = c(metrics.MPSPullRPCs)
	m["ps.client.push_rpcs"] = c(metrics.MPSPushRPCs)
	m["ps.client.rows_per_pull"] = counterRatio(reg, metrics.MPSPullRows, metrics.MPSPullRPCs)
	m["ps.link.retries"] = c(metrics.MPSLinkRetries)
	m["ps.server.rows_pulled"] = c(metrics.MPSServerRowsPulled)
	m["ps.server.rows_pushed"] = c(metrics.MPSServerRowsPushed)
	m["ps.codec.compression_ratio"] = counterRatio(reg, metrics.MPSCodecBytesRaw, metrics.MPSCodecBytesWire)
	m["ps.codec.rows_delta_share"] = counterRatio(reg, metrics.MPSCodecRowsDelta, metrics.MPSPullRows)
	m["eval.triples_per_s"] = twin.evalTriplesPerS
	m["train.final_loss"] = twin.losses[len(twin.losses)-1]
	runtimeLayer(m, twin.rt, twin.iters)
	res.Checks = append(res.Checks, lossChecks(twin.losses)...)

	layer, checks, err := replayTrain(spec, o.seed, twin.wallS, filepath.Join(o.outDir, w.Name+".spans.jsonl"))
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	for k, v := range layer {
		m[k] = v
	}
	res.Checks = append(res.Checks, checks...)
	res.Info["replay_epochs"] = spec.ReplayEpochs
	res.Info["twin_wall_s"] = twin.wallS
	return nil
}

// serveLatencies fills the per-endpoint client-side latency metrics under
// the given names and records sample counts and the percentile each
// metric could support.
func serveLatencies(res *result, latMS map[string][]float64, names map[string][2]string) {
	for kind, pair := range names {
		for i, pct := range []float64{50, 99} {
			if pair[i] == "" {
				continue
			}
			v, used := percentile(latMS[kind], pct)
			res.Metrics[pair[i]] = v
			res.Info[pair[i]+".percentile"] = used
		}
		res.Info["samples."+kind] = len(latMS[kind])
	}
}

// serveEndToEnd repeats untraced closed-loop rounds until o.seconds of timed
// serving has run; latencies pool every round's samples.
func serveEndToEnd(res *result, w workload, o runOptions) error {
	spec := w.Serve
	var setup, thr, cpu, wire, rss []float64
	latMS := map[string][]float64{}
	var timed float64
	var recallHits, recallTotal, rounds int
	var detail string
	for rounds == 0 || (timed < o.seconds && !o.short) {
		r := runServeRound(spec, o.seed)
		if r.err != nil {
			n := int64(spec.Clients * spec.RequestsPerClient)
			res.Attempted += n
			res.Failed += n
			return fmt.Errorf("round %d: %w", rounds+1, r.err)
		}
		rounds++
		timed += r.wallS
		res.Attempted += r.attempted
		res.Failed += r.verdict.failed
		if detail == "" {
			detail = r.verdict.detail
		}
		ok := float64(r.attempted - r.verdict.failed)
		setup = append(setup, r.setupS)
		rss = append(rss, r.peakRSSMB)
		thr = append(thr, ok/r.wallS)
		cpu = append(cpu, r.rt.cpuS*1e6/float64(r.attempted))
		wire = append(wire, float64(r.wireBytes)/float64(r.attempted))
		recallHits += r.verdict.recallHits
		recallTotal += r.verdict.recallTotal
		for kind, ms := range r.latMS {
			latMS[kind] = append(latMS[kind], ms...)
		}
	}
	res.Metrics = map[string]float64{
		"setup_s":             median(setup),
		"throughput_per_s":    median(thr),
		"cpu_us_per_unit":     median(cpu),
		"wire_bytes_per_unit": median(wire),
		"peak_rss_mb":         median(rss),
		"quality":             float64(recallHits) / float64(max(recallTotal, 1)),
	}
	serveLatencies(res, latMS, map[string][2]string{
		kindPredict:   {"serve_predict_ms_p50", "serve_predict_ms_p99"},
		kindScore:     {"serve_score_ms_p50", ""},
		kindNeighbors: {"serve_neighbors_ms_p50", ""},
	})
	res.Info["rounds"] = rounds
	res.Info["requests_per_round"] = spec.Clients * spec.RequestsPerClient
	res.Info["timed_s"] = timed
	res.Checks = append(res.Checks, check{Name: "answers_correct", OK: res.Failed == 0,
		Detail: fmt.Sprintf("%d of %d requests failed; every score within 1e-5 of model.Score, every %dth predict id-for-id against brute force (%d ids checked). %s",
			res.Failed, res.Attempted, verifyEvery, recallTotal, detail)})
	return nil
}

// serveLayers runs one untraced closed-loop round (counters and the
// closed-loop latencies) and then the single-client traced replay.
func serveLayers(res *result, w workload, o runOptions) error {
	spec := w.Serve
	twin := runServeRound(spec, o.seed)
	if twin.err != nil {
		return fmt.Errorf("untraced twin: %w", twin.err)
	}
	res.Attempted = twin.attempted
	res.Failed = twin.verdict.failed
	m := res.Metrics
	m["serve.tier.hit_ratio"] = twin.tierHitRatio
	m["serve.tier.rebuilds"] = float64(twin.tierRebuilds)
	if h := twin.reg.Histogram(metrics.MServeBatchSize); h.Count() > 0 {
		m["serve.batcher.batch_size_mean"] = h.Sum() / float64(h.Count())
	}
	runtimeLayer(m, twin.rt, twin.attempted)
	serveLatencies(res, twin.latMS, map[string][2]string{
		kindPredict:   {"serve.predict_ms_p50", "serve.predict_ms_p99"},
		kindScore:     {"serve.score_ms_p50", ""},
		kindNeighbors: {"serve.neighbors_ms_p50", ""},
	})
	res.Checks = append(res.Checks, check{Name: "answers_correct", OK: twin.verdict.failed == 0,
		Detail: fmt.Sprintf("%d of %d requests failed. %s", twin.verdict.failed, twin.attempted, twin.verdict.detail)})

	layer, checks, err := replayServe(spec, o.seed, filepath.Join(o.outDir, w.Name+".spans.jsonl"))
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	for k, v := range layer {
		m[k] = v
	}
	res.Checks = append(res.Checks, checks...)
	res.Info["replay_requests"] = spec.ReplayRequests
	return nil
}
