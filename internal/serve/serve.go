// Package serve is the online inference layer: it loads a trained checkpoint
// and answers knowledge-graph queries over HTTP — triple scoring, top-k link
// prediction, and embedding-space nearest neighbors. The serving read path
// reuses the training system's machinery where the paper's argument carries
// over: a hotness-aware HotTier fronts the embedding tables (skewed query
// workloads hit a small hot set, exactly as skewed training batches do), a
// group-commit batcher coalesces concurrent predictions into shared candidate
// sweeps, and the whole path is wired into the metrics registry and span
// tracer so serving is observable with the same tools as training.
// See DESIGN.md §9.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hetkg/internal/ckpt"
	"hetkg/internal/kg"
	"hetkg/internal/knn"
	"hetkg/internal/metrics"
	"hetkg/internal/model"
	"hetkg/internal/obs"
	"hetkg/internal/span"
)

// Config parameterizes New. Zero values take defaults.
type Config struct {
	// Checkpoint is the trained model to serve (required).
	Checkpoint *ckpt.Checkpoint
	// CacheBudget is the HotTier row budget (0 = 5% of all rows).
	CacheBudget int
	// EntityFraction is the entity share of the cache budget (0 = 0.25).
	EntityFraction float64
	// RebuildEvery is the cache promotion interval in accesses
	// (0 = DefaultRebuildEvery, negative = manual rebuilds only).
	RebuildEvery int
	// MaxBatch caps predictions coalesced per sweep (0 = DefaultMaxBatch).
	MaxBatch int
	// MaxK caps a request's k (0 = DefaultMaxK).
	MaxK int
	// Parallelism is the sweep worker count (0 = GOMAXPROCS).
	Parallelism int
	// KNNMetric selects the /v1/neighbors similarity (zero = cosine).
	KNNMetric knn.Metric
	// Registry receives the serve.* metrics (nil = a private registry;
	// either way /metrics exposes it).
	Registry *metrics.Registry
	// Tracer, when non-nil, records serve.request spans for sampled
	// requests.
	Tracer *span.Tracer
}

// Server answers queries against one loaded checkpoint. Methods are safe for
// concurrent use; the *Into methods are allocation-free after warmup when
// given capacity-sufficient destination slices.
type Server struct {
	ck     *ckpt.Checkpoint
	model  model.Model
	tier   *HotTier
	bat    *batcher
	index  *knn.Index
	reg    *metrics.Registry
	tracer *span.Tracer
	maxK   int
	seq    atomic.Int64
	knnSc  sync.Pool // *knn.Scratch
	obs    serveObs
}

// serveObs holds the server's registry-backed series.
type serveObs struct {
	requests     *metrics.Counter
	errors       *metrics.Counter
	latScore     *metrics.Histogram
	latPredict   *metrics.Histogram
	latNeighbors *metrics.Histogram
}

// New builds a server over cfg.Checkpoint.
func New(cfg Config) (*Server, error) {
	ck := cfg.Checkpoint
	if ck == nil {
		return nil, fmt.Errorf("serve: nil checkpoint")
	}
	m, err := ck.Model()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	tier, err := NewHotTier(ck.Entities, ck.Relations, cfg.CacheBudget, cfg.EntityFraction, cfg.RebuildEvery)
	if err != nil {
		return nil, err
	}
	index, err := knn.New(ck.Entities, cfg.KNNMetric)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	tier.Instrument(reg)
	maxK := cfg.MaxK
	if maxK <= 0 {
		maxK = DefaultMaxK
	}
	degree := cfg.Parallelism
	if degree <= 0 {
		degree = runtime.GOMAXPROCS(0)
	}
	bat := newBatcher(ck.Entities, cfg.MaxBatch, maxK, degree)
	bat.instrument(reg)
	bat.trace(cfg.Tracer)
	s := &Server{
		ck:     ck,
		model:  m,
		tier:   tier,
		bat:    bat,
		index:  index,
		reg:    reg,
		tracer: cfg.Tracer,
		maxK:   maxK,
		obs: serveObs{
			requests:     reg.Counter(metrics.MServeRequests),
			errors:       reg.Counter(metrics.MServeErrors),
			latScore:     reg.Histogram(metrics.MServeLatencyScore),
			latPredict:   reg.Histogram(metrics.MServeLatencyPredict),
			latNeighbors: reg.Histogram(metrics.MServeLatencyNeighbors),
		},
	}
	s.knnSc.New = func() any { return &knn.Scratch{} }
	return s, nil
}

// Close stops the batcher's goroutines. In-flight requests must have
// returned (the HTTP layer's graceful shutdown guarantees this).
func (s *Server) Close() { s.bat.close() }

// Registry returns the registry carrying the serve.* metrics.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Cache returns the serving hot tier (for inspection and manual rebuilds).
func (s *Server) Cache() *HotTier { return s.tier }

// Checkpoint returns the loaded checkpoint.
func (s *Server) Checkpoint() *ckpt.Checkpoint { return s.ck }

// checkEntity validates an entity id.
func (s *Server) checkEntity(id int, role string) error {
	if id < 0 || id >= s.ck.Entities.Rows {
		return fmt.Errorf("serve: %s entity %d out of range [0,%d)", role, id, s.ck.Entities.Rows)
	}
	return nil
}

// checkRelation validates a relation id.
func (s *Server) checkRelation(id int) error {
	if id < 0 || id >= s.ck.Relations.Rows {
		return fmt.Errorf("serve: relation %d out of range [0,%d)", id, s.ck.Relations.Rows)
	}
	return nil
}

// clampK bounds a requested k to [1, maxK] and the candidate count.
func (s *Server) clampK(k int) int {
	if k <= 0 {
		k = 10
	}
	if k > s.maxK {
		k = s.maxK
	}
	if k > s.ck.Entities.Rows {
		k = s.ck.Entities.Rows
	}
	return k
}

// ScoreTriple returns the model's plausibility score for (h, r, t), routing
// the three row reads through the hot tier.
func (s *Server) ScoreTriple(h, r, t int) (float32, error) {
	start := time.Now()
	if err := s.checkEntity(h, "head"); err != nil {
		s.obs.errors.Inc()
		return 0, err
	}
	if err := s.checkRelation(r); err != nil {
		s.obs.errors.Inc()
		return 0, err
	}
	if err := s.checkEntity(t, "tail"); err != nil {
		s.obs.errors.Inc()
		return 0, err
	}
	sp := s.tracer.RootNamed(int(s.seq.Add(1)), span.NServeRequest)
	lk := s.tracer.StartChild(sp.Context(), span.NServeLookup)
	hr, rr, tr := s.tier.Entity(h), s.tier.Relation(r), s.tier.Entity(t)
	lk.EndAttrs(span.Attrs{Rows: 3, Shard: span.NoShard})
	score := s.model.Score(hr, rr, tr)
	sp.EndAttrs(span.Attrs{Rows: 1, Shard: span.NoShard})
	s.obs.requests.Inc()
	s.obs.latScore.ObserveInt(time.Since(start).Nanoseconds())
	return score, nil
}

// PredictInto ranks every entity as the missing tail (tails=true) or head
// (tails=false) of the partial triple and writes the top k into dst, best
// first. The sweep is shared with concurrent predictions via the batcher.
// dst is grown from dst[:0]; pass capacity ≥ k to avoid allocation.
func (s *Server) PredictInto(dst []knn.Result, entity, rel int, tails bool, k int) ([]knn.Result, error) {
	start := time.Now()
	role := "tail"
	if tails {
		role = "head" // the known entity: predicting tails means it is the head
	}
	if err := s.checkEntity(entity, role); err != nil {
		s.obs.errors.Inc()
		return dst, err
	}
	if err := s.checkRelation(rel); err != nil {
		s.obs.errors.Inc()
		return dst, err
	}
	k = s.clampK(k)
	sp := s.tracer.RootNamed(int(s.seq.Add(1)), span.NServeRequest)
	lk := s.tracer.StartChild(sp.Context(), span.NServeLookup)
	anchor, rrow := s.tier.Entity(entity), s.tier.Relation(rel)
	lk.EndAttrs(span.Attrs{Rows: 2, Shard: span.NoShard})

	j := s.bat.get()
	j.sweep.Reset(s.model, anchor, rrow, tails)
	j.k, j.sc = k, sp.Context()
	s.bat.submit(j)
	<-j.done

	n := len(j.out)
	if cap(dst) < n {
		dst = make([]knn.Result, n)
	} else {
		dst = dst[:n]
	}
	copy(dst, j.out)
	s.bat.put(j)
	sp.EndAttrs(span.Attrs{Rows: int64(s.ck.Entities.Rows), Shard: span.NoShard})
	s.obs.requests.Inc()
	s.obs.latPredict.ObserveInt(time.Since(start).Nanoseconds())
	return dst, nil
}

// NeighborsInto writes entity's k nearest neighbors in embedding space
// (excluding itself) into dst, best first. dst is grown from dst[:0]; pass
// capacity ≥ k to avoid allocation.
func (s *Server) NeighborsInto(dst []knn.Result, entity, k int) ([]knn.Result, error) {
	start := time.Now()
	if err := s.checkEntity(entity, "query"); err != nil {
		s.obs.errors.Inc()
		return dst, err
	}
	k = s.clampK(k)
	sp := s.tracer.RootNamed(int(s.seq.Add(1)), span.NServeRequest)
	lk := s.tracer.StartChild(sp.Context(), span.NServeLookup)
	row := s.tier.Entity(entity)
	lk.EndAttrs(span.Attrs{Rows: 1, Shard: span.NoShard})
	kn := s.tracer.StartChild(sp.Context(), span.NServeKNN)
	sc := s.knnSc.Get().(*knn.Scratch)
	dst, err := s.index.SearchInto(dst, row, k, kg.EntityID(entity), sc)
	s.knnSc.Put(sc)
	kn.EndAttrs(span.Attrs{Rows: int64(s.index.Rows()), Shard: span.NoShard})
	sp.EndAttrs(span.Attrs{Rows: int64(k), Shard: span.NoShard})
	if err != nil {
		s.obs.errors.Inc()
		return dst, err
	}
	s.obs.requests.Inc()
	s.obs.latNeighbors.ObserveInt(time.Since(start).Nanoseconds())
	return dst, nil
}

// Listen opens the server's TCP listener. Non-loopback addresses are
// refused unless allowRemote is set: the query endpoints and the mounted
// introspection handlers are unauthenticated.
func (s *Server) Listen(addr string, allowRemote bool) (net.Listener, error) {
	if !allowRemote {
		if err := obs.CheckLoopback(addr); err != nil {
			return nil, err
		}
	}
	return net.Listen("tcp", addr)
}

// Handler returns the HTTP mux: the three /v1 query endpoints plus the
// introspection routes (/metrics, /healthz, /debug/pprof/) from the obs
// package, all backed by this server's registry.
func (s *Server) Handler() http.Handler {
	mux := obs.Handler(s.reg)
	mux.HandleFunc("/v1/score", s.handleScore)
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/neighbors", s.handleNeighbors)
	return mux
}

// scoreRequest is the /v1/score input (query params or POST JSON body).
type scoreRequest struct {
	Head     int `json:"head"`
	Relation int `json:"relation"`
	Tail     int `json:"tail"`
}

// predictRequest is the /v1/predict input. Dir is "tail" (default: rank
// tails for (entity, relation, ?)) or "head" (rank heads for (?, relation,
// entity)).
type predictRequest struct {
	Entity   int    `json:"entity"`
	Relation int    `json:"relation"`
	Dir      string `json:"dir"`
	K        int    `json:"k"`
}

// neighborsRequest is the /v1/neighbors input.
type neighborsRequest struct {
	Entity int `json:"entity"`
	K      int `json:"k"`
}

// httpError writes a JSON error body. Every failure on the read path is the
// client's fault: 413 for a body over maxBodyBytes, 400 for everything else.
func (s *Server) httpError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeJSON writes a 200 JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// formInt parses an integer query parameter, returning def when absent.
func formInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("serve: parameter %s=%q is not an integer", name, v)
	}
	return n, nil
}

// maxBodyBytes caps a POST body. A request is at most four small integers
// and a direction; anything near this size is not one.
const maxBodyBytes = 4 << 10

// decodeBody fills v from a POST JSON body: exactly one JSON object of known
// fields, at most maxBodyBytes long, followed by nothing but whitespace.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: decoding request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("data after the JSON object")
		}
		return fmt.Errorf("serve: decoding request body: %w", err)
	}
	return nil
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	req := scoreRequest{Head: -1, Relation: -1, Tail: -1}
	var err error
	if r.Method == http.MethodPost {
		err = decodeBody(w, r, &req)
	} else {
		if req.Head, err = formInt(r, "head", -1); err == nil {
			if req.Relation, err = formInt(r, "relation", -1); err == nil {
				req.Tail, err = formInt(r, "tail", -1)
			}
		}
	}
	if err != nil {
		s.obs.errors.Inc()
		s.httpError(w, err)
		return
	}
	score, err := s.ScoreTriple(req.Head, req.Relation, req.Tail)
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, map[string]float32{"score": score})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	req := predictRequest{Entity: -1, Relation: -1, Dir: "tail"}
	var err error
	if r.Method == http.MethodPost {
		err = decodeBody(w, r, &req)
		if req.Dir == "" {
			req.Dir = "tail"
		}
	} else {
		if req.Entity, err = formInt(r, "entity", -1); err == nil {
			if req.Relation, err = formInt(r, "relation", -1); err == nil {
				req.K, err = formInt(r, "k", 0)
			}
		}
		if d := r.URL.Query().Get("dir"); d != "" {
			req.Dir = d
		}
	}
	if err == nil && req.Dir != "tail" && req.Dir != "head" {
		err = fmt.Errorf("serve: dir must be %q or %q, got %q", "tail", "head", req.Dir)
	}
	if err != nil {
		s.obs.errors.Inc()
		s.httpError(w, err)
		return
	}
	results, err := s.PredictInto(nil, req.Entity, req.Relation, req.Dir == "tail", req.K)
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, map[string][]knn.Result{"results": results})
}

func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	req := neighborsRequest{Entity: -1}
	var err error
	if r.Method == http.MethodPost {
		err = decodeBody(w, r, &req)
	} else {
		if req.Entity, err = formInt(r, "entity", -1); err == nil {
			req.K, err = formInt(r, "k", 0)
		}
	}
	if err != nil {
		s.obs.errors.Inc()
		s.httpError(w, err)
		return
	}
	results, err := s.NeighborsInto(nil, req.Entity, req.K)
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, map[string][]knn.Result{"results": results})
}
