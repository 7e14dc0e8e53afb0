// Package serve is the online inference layer: it loads a trained checkpoint
// and answers knowledge-graph queries over HTTP — triple scoring, top-k link
// prediction, and embedding-space nearest neighbors. Every request reads its
// query rows straight from the checkpoint's in-memory tables: the paper's
// hotness-aware cache pays by replacing a network pull, and a serving replica
// has none to replace. A prediction sweeps the entity table a tile at a time
// on the requesting goroutine, as a neighbor search does, and the whole path
// is wired into the metrics registry and span tracer so serving is observable
// with the same tools as training. See DESIGN.md §9.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
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
	// MaxK caps a request's k (0 = DefaultMaxK).
	MaxK int
	// KNNMetric selects the /v1/neighbors similarity (zero = cosine).
	KNNMetric knn.Metric
	// Registry receives the serve.* metrics (nil = a private registry;
	// either way /metrics exposes it).
	Registry *metrics.Registry
	// Tracer, when non-nil, records serve.request spans for sampled
	// requests.
	Tracer *span.Tracer
}

// DefaultMaxK is the default cap on a request's k.
const DefaultMaxK = 128

// sweepTile is how many candidate rows one kernel call scores, as in
// knn.Index.SearchInto: enough to amortize the call, few enough that the
// scores stay in L1 until they are ranked.
const sweepTile = 256

// Server answers queries against one loaded checkpoint. Methods are safe for
// concurrent use; every request runs on its caller's goroutine, and the *Into
// methods are allocation-free after warmup when given capacity-sufficient
// destination slices.
type Server struct {
	ck     *ckpt.Checkpoint
	model  model.Model
	index  *knn.Index
	reg    *metrics.Registry
	tracer *span.Tracer
	maxK   int
	seq    atomic.Int64
	knnSc  sync.Pool // *knn.Scratch
	predSc sync.Pool // *predictScratch
	obs    serveObs
}

// predictScratch is one prediction's reusable state: the prepared partial
// triple, the top-k selector and one tile of candidate scores.
type predictScratch struct {
	sweep  model.Sweep
	top    knn.TopK
	scores [sweepTile]float32
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
	if ck.Entities.Rows == 0 || ck.Relations.Rows == 0 {
		return nil, fmt.Errorf("serve: empty embedding tables")
	}
	index, err := knn.New(ck.Entities, cfg.KNNMetric)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	maxK := cfg.MaxK
	if maxK <= 0 {
		maxK = DefaultMaxK
	}
	s := &Server{
		ck:     ck,
		model:  m,
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
	s.predSc.New = func() any { return &predictScratch{} }
	return s, nil
}

// Close does nothing: requests run on their callers' goroutines, so the
// server owns none to stop. It stays because benchmark/serve.go calls it.
func (s *Server) Close() {}

// Registry returns the registry carrying the serve.* metrics.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Cache returns plain reads of the checkpoint's rows, with HitRatio and
// Rebuilds at 0: nothing is cached. It stays because benchmark/serve.go and
// benchmark/replay_serve.go call it; the server's own reads do not go
// through it.
func (s *Server) Cache() Rows { return Rows{s.ck} }

// Rows reads a served checkpoint's embedding rows (see Server.Cache).
type Rows struct{ ck *ckpt.Checkpoint }

// Entity returns entity id's embedding row.
func (r Rows) Entity(id int) []float32 { return r.ck.Entities.Row(id) }

// Relation returns relation id's embedding row.
func (r Rows) Relation(id int) []float32 { return r.ck.Relations.Row(id) }

// HitRatio returns 0: nothing is cached.
func (Rows) HitRatio() float64 { return 0 }

// Rebuilds returns 0: nothing is cached.
func (Rows) Rebuilds() int64 { return 0 }

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

// ScoreTriple returns the model's plausibility score for (h, r, t).
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
	score := s.model.Score(s.ck.Entities.Row(h), s.ck.Relations.Row(r), s.ck.Entities.Row(t))
	sp.EndAttrs(span.Attrs{Rows: 1, Shard: span.NoShard})
	s.obs.requests.Inc()
	s.obs.latScore.ObserveInt(time.Since(start).Nanoseconds())
	return score, nil
}

// PredictInto ranks every entity as the missing tail (tails=true) or head
// (tails=false) of the partial triple and writes the top k into dst, best
// first. The entity table is swept on the calling goroutine, a tile of rows
// per model.Sweep call, and only a score that could enter the top k is
// offered to the selector. dst is grown from dst[:0]; pass capacity ≥ k to
// avoid allocation.
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
	sw := s.tracer.StartChild(sp.Context(), span.NServeSweep)
	ps := s.predSc.Get().(*predictScratch)
	ents, top := s.ck.Entities, &ps.top
	ps.sweep.Reset(s.model, ents.Row(entity), s.ck.Relations.Row(rel), tails)
	top.Reset(k)
	for lo := 0; lo < ents.Rows; lo += sweepTile {
		hi := min(lo+sweepTile, ents.Rows)
		scores := ps.scores[:hi-lo]
		ps.sweep.Score(scores, ents.Data[lo*ents.Dim:hi*ents.Dim])
		for c, score := range scores {
			if !top.Rejects(score) {
				top.Offer(kg.EntityID(lo+c), score)
			}
		}
	}
	dst = top.Sorted(dst)
	s.predSc.Put(ps)
	sw.EndAttrs(span.Attrs{Rows: int64(ents.Rows), Shard: span.NoShard})

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
	kn := s.tracer.StartChild(sp.Context(), span.NServeKNN)
	sc := s.knnSc.Get().(*knn.Scratch)
	dst, err := s.index.SearchInto(dst, s.ck.Entities.Row(entity), k, kg.EntityID(entity), sc)
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
