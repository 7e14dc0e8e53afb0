package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"hetkg"
	"hetkg/internal/kg"
	"hetkg/internal/knn"
	"hetkg/internal/metrics"
	"hetkg/internal/vec"
)

// The three query endpoints.
const (
	kindPredict   = "predict"
	kindScore     = "score"
	kindNeighbors = "neighbors"
)

var serveKinds = []string{kindPredict, kindScore, kindNeighbors}

// verifyEvery is the stride at which predict responses are compared
// id-for-id against a brute-force ranking.
const verifyEvery = 50

// query is one generated request: predict ranks tails for (A, B, ?), score
// scores (A, B, C), neighbors searches around entity A.
type query struct {
	Kind    string
	A, B, C int
}

func (q query) path(k int) string {
	switch q.Kind {
	case kindPredict:
		return fmt.Sprintf("/v1/predict?entity=%d&relation=%d&k=%d", q.A, q.B, k)
	case kindScore:
		return fmt.Sprintf("/v1/score?head=%d&relation=%d&tail=%d", q.A, q.B, q.C)
	default:
		return fmt.Sprintf("/v1/neighbors?entity=%d&k=%d", q.A, k)
	}
}

// genQueries draws n queries from rng: the endpoint from the workload's
// mix, entity keys Zipf-distributed over a seeded permutation of the ids
// (so the hot set is scattered over the table), relations uniform.
func genQueries(spec *serveSpec, rng *rand.Rand, perm []int, n int) []query {
	zipf := rand.NewZipf(rng, spec.ZipfS, 1, uint64(spec.Entities-1))
	entity := func() int { return perm[zipf.Uint64()] }
	qs := make([]query, n)
	for i := range qs {
		switch p := rng.Intn(100); {
		case p < spec.PredictPct:
			qs[i] = query{Kind: kindPredict, A: entity(), B: rng.Intn(spec.Relations)}
		case p < spec.PredictPct+spec.ScorePct:
			qs[i] = query{Kind: kindScore, A: entity(), B: rng.Intn(spec.Relations), C: entity()}
		default:
			qs[i] = query{Kind: kindNeighbors, A: entity()}
		}
	}
	return qs
}

// servingRig is a query server over a synthetic checkpoint, listening on a
// loopback socket the benchmark counts.
type servingRig struct {
	spec  *serveSpec
	ck    *hetkg.Checkpoint
	model hetkg.Model
	srv   *hetkg.QueryServer
	http  *http.Server
	done  chan struct{} // closed when http.Serve returns
	base  string
	count *wireCount
	perm  []int
}

// startServing synthesizes the checkpoint from seed, builds the server,
// starts listening and sends the warm-up requests.
func startServing(spec *serveSpec, seed int64) (*servingRig, error) {
	rng := rand.New(rand.NewSource(seed))
	ck := &hetkg.Checkpoint{
		ModelName: "transe", Dim: spec.Dim, Dataset: "synthetic", Seed: seed, System: "benchmark",
		Entities: vec.NewMatrix(spec.Entities, spec.Dim), Relations: vec.NewMatrix(spec.Relations, spec.Dim),
	}
	ck.Entities.InitKGE(rng)
	ck.Relations.InitKGE(rng)
	mdl, err := hetkg.NewModel(ck.ModelName)
	if err != nil {
		return nil, err
	}
	srv, err := hetkg.NewQueryServer(hetkg.QueryServerConfig{Checkpoint: ck})
	if err != nil {
		return nil, err
	}
	l, err := srv.Listen("127.0.0.1:0", false)
	if err != nil {
		srv.Close()
		return nil, err
	}
	rig := &servingRig{
		spec: spec, ck: ck, model: mdl, srv: srv,
		http:  &http.Server{Handler: srv.Handler()},
		done:  make(chan struct{}),
		base:  "http://" + l.Addr().String(),
		count: &wireCount{},
		perm:  rng.Perm(spec.Entities),
	}
	go func() {
		defer close(rig.done)
		rig.http.Serve(countingListener{Listener: l, count: rig.count}) // returns ErrServerClosed on Shutdown
	}()
	warm := newQueryClient(rig)
	defer warm.close()
	for _, q := range genQueries(spec, rand.New(rand.NewSource(seed+1)), rig.perm, spec.Warmup) {
		if out := warm.do(q); out.err != nil {
			rig.close()
			return nil, fmt.Errorf("warm-up %s: %w", q.path(spec.K), out.err)
		}
	}
	return rig, nil
}

// close drains the HTTP server, waits for its accept loop and stops the
// batcher's goroutines.
func (r *servingRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.http.Shutdown(ctx); err != nil {
		r.http.Close()
	}
	<-r.done
	r.srv.Close()
}

// reply is a decoded response body of any of the three endpoints.
type reply struct {
	Score   float32      `json:"score"`
	Results []knn.Result `json:"results"`
}

// outcome is one request as the client saw it.
type outcome struct {
	q       query
	latency time.Duration
	reply   reply
	err     error // transport error, non-200 status or undecodable body
}

// queryClient is one closed-loop caller with a single keep-alive connection.
type queryClient struct {
	rig  *servingRig
	http *http.Client
}

func newQueryClient(rig *servingRig) *queryClient {
	return &queryClient{rig: rig, http: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

func (c *queryClient) close() { c.http.CloseIdleConnections() }

// do sends q and waits for the decoded reply; the latency covers both.
func (c *queryClient) do(q query) outcome {
	out := outcome{q: q}
	url := c.rig.base + q.path(c.rig.spec.K)
	start := time.Now()
	resp, err := c.http.Get(url)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
		case resp.StatusCode != http.StatusOK:
			err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
		default:
			err = json.Unmarshal(body, &out.reply)
		}
	}
	out.latency = time.Since(start)
	out.err = err
	return out
}

// bruteForcePredict ranks every entity as the tail of (q.A, q.B, ?) with
// model.Score, best first, ties by ascending id: the reference the served
// top-k must equal.
func (r *servingRig) bruteForcePredict(q query, k int) []kg.EntityID {
	h, rel := r.ck.Entities.Row(q.A), r.ck.Relations.Row(q.B)
	all := make([]knn.Result, r.ck.Entities.Rows)
	for e := range all {
		all[e] = knn.Result{ID: kg.EntityID(e), Score: r.model.Score(h, rel, r.ck.Entities.Row(e))}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	ids := make([]kg.EntityID, k)
	for i := range ids {
		ids[i] = all[i].ID
	}
	return ids
}

// verdict is the outcome of checking a stream of replies against the model.
type verdict struct {
	failed       int64 // transport/status failures plus wrong answers
	detail       string
	predictsSeen int
	recallHits   int // verified predict ids also in the brute-force top-k
	recallTotal  int
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if v.detail == "" {
		v.detail = fmt.Sprintf(format, args...)
	}
}

// verify checks every outcome: no error, every score within 1e-5 of
// model.Score, every verifyEvery-th predict equal id-for-id to brute force.
func (r *servingRig) verify(outs []outcome) verdict {
	var v verdict
	for _, o := range outs {
		if o.err != nil {
			v.fail("%s: %v", o.q.path(r.spec.K), o.err)
			continue
		}
		switch o.q.Kind {
		case kindScore:
			want := r.model.Score(r.ck.Entities.Row(o.q.A), r.ck.Relations.Row(o.q.B), r.ck.Entities.Row(o.q.C))
			if d := math.Abs(float64(o.reply.Score - want)); !(d <= 1e-5) {
				v.fail("%s: score %v, model.Score %v", o.q.path(r.spec.K), o.reply.Score, want)
			}
		case kindPredict:
			v.predictsSeen++
			if (v.predictsSeen-1)%verifyEvery != 0 {
				continue
			}
			want := r.bruteForcePredict(o.q, r.spec.K)
			inWant := make(map[kg.EntityID]bool, len(want))
			for _, id := range want {
				inWant[id] = true
			}
			exact := len(o.reply.Results) == len(want)
			for i, res := range o.reply.Results {
				if inWant[res.ID] {
					v.recallHits++
				}
				if exact && res.ID != want[i] {
					exact = false
				}
			}
			v.recallTotal += len(want)
			if !exact {
				v.fail("%s: served ids differ from brute force %v", o.q.path(r.spec.K), want)
			}
		default:
			if len(o.reply.Results) != r.spec.K {
				v.fail("%s: %d results, want %d", o.q.path(r.spec.K), len(o.reply.Results), r.spec.K)
			}
		}
	}
	return v
}

// serveRound is what one untraced closed-loop round measured.
type serveRound struct {
	setupS, wallS float64
	peakRSSMB     float64
	attempted     int64
	verdict       verdict
	wireBytes     int64
	latMS         map[string][]float64 // per endpoint, client side
	rt            runtimeDelta
	reg           *metrics.Registry
	tierHitRatio  float64
	tierRebuilds  int64
	err           error
}

// runServeRound builds a fresh server, then lets spec.Clients closed-loop
// clients each send their own fixed request stream and wait for every reply.
func runServeRound(spec *serveSpec, seed int64) *serveRound {
	r := &serveRound{latMS: map[string][]float64{}}
	resetPeakRSS()
	defer func() {
		rss, err := peakRSSMB()
		if err != nil && r.err == nil {
			r.err = err
		}
		r.peakRSSMB = rss
	}()
	setupStart := time.Now()
	rig, err := startServing(spec, seed)
	if err != nil {
		r.err = err
		return r
	}
	defer rig.close()
	streams := make([][]query, spec.Clients)
	clients := make([]*queryClient, spec.Clients)
	for c := range clients {
		streams[c] = genQueries(spec, rand.New(rand.NewSource(seed+100+int64(c))), rig.perm, spec.RequestsPerClient)
		clients[c] = newQueryClient(rig)
		defer clients[c].close()
	}
	r.setupS = time.Since(setupStart).Seconds()

	outs := make([][]outcome, spec.Clients)
	wireBefore := rig.count.total()
	probe := startRuntimeProbe()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c] = make([]outcome, 0, len(streams[c]))
			for _, q := range streams[c] {
				outs[c] = append(outs[c], clients[c].do(q))
			}
		}(c)
	}
	wg.Wait()
	r.wallS = time.Since(start).Seconds()
	r.rt = probe.stop()
	r.wireBytes = rig.count.total() - wireBefore

	// Answers are checked after the clock stops, so the brute-force
	// rankings do not take CPU from the server being measured.
	for _, co := range outs {
		v := rig.verify(co)
		r.attempted += int64(len(co))
		r.verdict.failed += v.failed
		if r.verdict.detail == "" {
			r.verdict.detail = v.detail
		}
		r.verdict.recallHits += v.recallHits
		r.verdict.recallTotal += v.recallTotal
		for _, o := range co {
			r.latMS[o.q.Kind] = append(r.latMS[o.q.Kind], float64(o.latency)/1e6)
		}
	}
	r.reg = rig.srv.Registry()
	r.tierHitRatio = rig.srv.Cache().HitRatio()
	r.tierRebuilds = rig.srv.Cache().Rebuilds()
	return r
}
