package main

import (
	"fmt"
	"math/rand"
	"time"

	"hetkg/internal/knn"
)

// Serving span layers: an HTTP span's time beyond the direct call for the
// same query is serve.http's; the direct call is the endpoint's own layer.
const (
	layerHTTP    = "serve.http"
	layerTier    = "serve.tier"
	layerBatcher = "serve.batcher"
	layerKNN     = "knn"
)

var directLayer = map[string]string{
	kindPredict:   layerBatcher,
	kindScore:     layerTier,
	kindNeighbors: layerKNN,
}

// direct answers q with the server's exported method for its endpoint.
func (r *servingRig) direct(q query, dst []knn.Result) (reply, error) {
	switch q.Kind {
	case kindPredict:
		res, err := r.srv.PredictInto(dst, q.A, q.B, true, r.spec.K)
		return reply{Results: res}, err
	case kindScore:
		s, err := r.srv.ScoreTriple(q.A, q.B, q.C)
		return reply{Score: s}, err
	default:
		res, err := r.srv.NeighborsInto(dst, q.A, r.spec.K)
		return reply{Results: res}, err
	}
}

// replayServe sends one request stream twice on one client — over HTTP,
// then as direct method calls — with a span per request, and derives the
// serving layers' metrics from the pairs.
func replayServe(spec *serveSpec, seed int64, spansPath string) (map[string]float64, []check, error) {
	rig, err := startServing(spec, seed)
	if err != nil {
		return nil, nil, err
	}
	defer rig.close()
	stream := genQueries(spec, rand.New(rand.NewSource(seed+100)), rig.perm, spec.ReplayRequests)
	client := newQueryClient(rig)
	defer client.close()
	rec := newRecorder(2 * len(stream))

	// The same stream with tracing off first: the reference the traced
	// pass's wall is compared against for trace.overhead_pct.
	untracedStart := time.Now()
	for _, q := range stream {
		client.do(q)
	}
	untracedWallS := time.Since(untracedStart).Seconds()

	httpOuts := make([]outcome, len(stream))
	httpStart := time.Now()
	for i, q := range stream {
		rec.trace = int32(i)
		id := rec.begin(layerHTTP, "http."+q.Kind)
		httpOuts[i] = client.do(q)
		rec.end(id)
	}
	httpWallS := time.Since(httpStart).Seconds()

	directOuts := make([]outcome, len(stream))
	dst := make([]knn.Result, 0, spec.K)
	for i, q := range stream {
		rec.trace = int32(i)
		id := rec.begin(directLayer[q.Kind], "direct."+q.Kind)
		rep, err := rig.direct(q, dst)
		rec.end(id)
		rep.Results = append([]knn.Result(nil), rep.Results...) // dst is reused
		directOuts[i] = outcome{q: q, reply: rep, err: err}
	}

	// HotTier lookups alone, over the stream's own entity keys.
	tier := rig.srv.Cache()
	lookupStart := time.Now()
	lookups := 0
	for _, q := range stream {
		_ = tier.Entity(q.A)
		_ = tier.Relation(q.B)
		lookups += 2
	}
	lookupNS := float64(time.Since(lookupStart)) / float64(lookups)

	if err := writeJSONL(spansPath, rec.spans); err != nil {
		return nil, nil, err
	}

	// Spans were recorded HTTP pass first, direct pass second, in stream
	// order: span i and span len(stream)+i belong to the same query.
	n := len(stream)
	overheadUS := map[string][]float64{}
	directUS := map[string][]float64{}
	httpMS := map[string][]float64{}
	busyNS := map[string]float64{}
	for i, q := range stream {
		h := float64(rec.spans[i].End - rec.spans[i].Start)
		d := float64(rec.spans[n+i].End - rec.spans[n+i].Start)
		overheadUS[q.Kind] = append(overheadUS[q.Kind], (h-d)/1e3)
		directUS[q.Kind] = append(directUS[q.Kind], d/1e3)
		httpMS[q.Kind] = append(httpMS[q.Kind], h/1e6)
		busyNS[directLayer[q.Kind]] += d
		busyNS[layerHTTP] += h - d
	}
	out := map[string]float64{
		"serve.http.predict_overhead_us_p50":   pct(overheadUS[kindPredict], 50),
		"serve.http.score_overhead_us_p50":     pct(overheadUS[kindScore], 50),
		"serve.http.neighbors_overhead_us_p50": pct(overheadUS[kindNeighbors], 50),
		"serve.tier.lookup_ns":                 lookupNS,
		"serve.batcher.predict_direct_us_p50":  pct(directUS[kindPredict], 50),
		"serve.batcher.predict_direct_us_p99":  pct(directUS[kindPredict], 99),
		"knn.neighbors_direct_us_p50":          pct(directUS[kindNeighbors], 50),
		"knn.neighbors_http_ms_p95":            pct(httpMS[kindNeighbors], 95),
		"trace.overhead_pct":                   (httpWallS - untracedWallS) / untracedWallS * 100,
	}
	attributed := 0.0
	for _, layer := range []string{layerHTTP, layerTier, layerBatcher, layerKNN} {
		share := busyNS[layer] / (httpWallS * 1e9)
		out[layer+".busy_share"] = share
		attributed += share
	}
	out["trace.unattributed_share"] = 1 - attributed

	hv, dv := rig.verify(httpOuts), rig.verify(directOuts)
	same := true
	for i := range stream {
		a, b := httpOuts[i].reply, directOuts[i].reply
		if a.Score != b.Score || len(a.Results) != len(b.Results) {
			same = false
			continue
		}
		for j := range a.Results {
			if a.Results[j].ID != b.Results[j].ID {
				same = false
			}
		}
	}
	checks := []check{
		{Name: "replay_http_answers_correct", OK: hv.failed == 0, Detail: fmt.Sprintf("%d of %d failed; %s", hv.failed, n, hv.detail)},
		{Name: "replay_direct_answers_correct", OK: dv.failed == 0, Detail: fmt.Sprintf("%d of %d failed; %s", dv.failed, n, dv.detail)},
		{Name: "replay_http_equals_direct", OK: same, Detail: "every HTTP reply carries the ids and score of the direct call"},
		{Name: "replay_spans_written", OK: len(rec.spans) == 2*n, Detail: fmt.Sprintf("%d spans in %s", len(rec.spans), spansPath)},
		{Name: "replay_busy_shares_account_for_wall", OK: attributed >= 0.9 && attributed <= 1.0+1e-9,
			Detail: fmt.Sprintf("layers' busy_share sum to %.4f of the HTTP pass wall", attributed)},
	}
	return out, checks, nil
}
