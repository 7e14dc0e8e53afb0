package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"hetkg/internal/ckpt"
	"hetkg/internal/core"
	"hetkg/internal/kg"
	"hetkg/internal/knn"
	"hetkg/internal/model"
	"hetkg/internal/span"
)

// cycleN is the entity count of the test graph: a directed path under
// relation 0 ((i, 0, i+1)) with inverse edges under relation 1. A path —
// unlike a closed cycle, whose translations must sum to zero — is exactly
// representable by TransE (e_i = i·v, r0 = v, r1 = -v), so a short training
// run ranks the true successor first: a deterministic golden signal for the
// serving path.
const cycleN = 16

func cycleGraph() *kg.Graph {
	triples := make([]kg.Triple, 0, 2*(cycleN-1))
	for i := 0; i < cycleN-1; i++ {
		next := kg.EntityID(i + 1)
		triples = append(triples,
			kg.Triple{Head: kg.EntityID(i), Relation: 0, Tail: next},
			kg.Triple{Head: next, Relation: 1, Tail: kg.EntityID(i)},
		)
	}
	return kg.MustNewGraph("path", cycleN, 2, triples)
}

var (
	trainOnce sync.Once
	trainCkpt *ckpt.Checkpoint
	trainErr  error
)

// trainedCheckpoint trains the cycle model once per test binary and
// round-trips it through the ckpt binary format, so every test serves
// exactly what a hetkg train invocation would have written to disk.
func trainedCheckpoint(t *testing.T) *ckpt.Checkpoint {
	t.Helper()
	trainOnce.Do(func() {
		res, err := core.Run(core.RunConfig{
			Graph:     cycleGraph(),
			System:    core.SystemHETKGC,
			ModelName: "transe",
			Machines:  1,
			Dim:       16,
			Epochs:    240,
			BatchSize: 8,
			NegPerPos: 8,
			Seed:      7,
		})
		if err != nil {
			trainErr = err
			return
		}
		var buf bytes.Buffer
		err = ckpt.Write(&buf, &ckpt.Checkpoint{
			ModelName: "transe",
			Dim:       res.Entities.Dim,
			Dataset:   "cycle",
			Seed:      7,
			Epochs:    len(res.Epochs),
			System:    res.System,
			Entities:  res.Entities,
			Relations: res.Relations,
		})
		if err != nil {
			trainErr = err
			return
		}
		trainCkpt, trainErr = ckpt.Read(&buf)
	})
	if trainErr != nil {
		t.Fatalf("training checkpoint: %v", trainErr)
	}
	return trainCkpt
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Checkpoint == nil {
		cfg.Checkpoint = trainedCheckpoint(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// referenceRank scores every candidate directly with the model (rows read
// from the raw tables, no cache, no batching) and returns the top k under
// the serving total order — the ground truth the batched sweep must match.
func referenceRank(ck *ckpt.Checkpoint, entity, rel int, tails bool, k int) []knn.Result {
	m, err := model.New(ck.ModelName)
	if err != nil {
		panic(err)
	}
	anchor := ck.Entities.Row(entity)
	rrow := ck.Relations.Row(rel)
	all := make([]knn.Result, ck.Entities.Rows)
	for c := 0; c < ck.Entities.Rows; c++ {
		var s float32
		if tails {
			s = m.Score(anchor, rrow, ck.Entities.Row(c))
		} else {
			s = m.Score(ck.Entities.Row(c), rrow, anchor)
		}
		all[c] = knn.Result{ID: kg.EntityID(c), Score: s}
	}
	sortTotalOrder(all)
	return all[:k]
}

// sortTotalOrder sorts into the documented serving order, written out here
// independently of knn.TopK: score descending, exact ties to the lower id.
func sortTotalOrder(rs []knn.Result) {
	sort.Slice(rs, func(a, b int) bool {
		if rs[a].Score != rs[b].Score {
			return rs[a].Score > rs[b].Score
		}
		return rs[a].ID < rs[b].ID
	})
}

// trainSplitTriples reproduces the train split core.Run derives from the
// run seed, so golden assertions target facts the model actually saw.
func trainSplitTriples(t *testing.T) []kg.Triple {
	t.Helper()
	sp, err := kg.SplitTriples(cycleGraph(), rand.New(rand.NewSource(7+17)), 0.05, 0.05)
	if err != nil {
		t.Fatalf("SplitTriples: %v", err)
	}
	return sp.Train.Triples
}

// TestRoundTripPredict is the checkpoint → serve golden test: a model
// trained in-process and round-tripped through the ckpt format must rank
// each training fact's true tail (and, via the inverse relation, true head)
// first, and the batched sweep must reproduce the brute-force reference
// ranking exactly for every query.
func TestRoundTripPredict(t *testing.T) {
	ck := trainedCheckpoint(t)
	s := newTestServer(t, Config{Parallelism: 4})
	var dst []knn.Result
	checked := 0
	for _, tr := range trainSplitTriples(t) {
		// Every (head, relation) in the cycle graph has exactly one true
		// tail, so top-1 is well defined for both r0 and its inverse r1.
		anchor, want := int(tr.Head), tr.Tail
		var err error
		dst, err = s.PredictInto(dst, anchor, int(tr.Relation), true, 5)
		if err != nil {
			t.Fatalf("PredictInto(%d, r%d): %v", anchor, tr.Relation, err)
		}
		if dst[0].ID != want {
			t.Errorf("predict tails(%d, r%d): top-1 = %d (score %.4f), want %d", anchor, tr.Relation, dst[0].ID, dst[0].Score, want)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d training facts checked; split went wrong", checked)
	}
	// The batched sweep must agree exactly with unbatched brute force for
	// every (entity, relation, direction) query, top-5.
	for e := 0; e < cycleN; e++ {
		for r := 0; r < 2; r++ {
			for _, tails := range []bool{true, false} {
				got, err := s.PredictInto(nil, e, r, tails, 5)
				if err != nil {
					t.Fatal(err)
				}
				if ref := referenceRank(ck, e, r, tails, 5); !reflect.DeepEqual(got, ref) {
					t.Errorf("predict(%d, r%d, tails=%v) = %v, want reference %v", e, r, tails, got, ref)
				}
			}
		}
	}
}

// TestPredictDeterministicAcrossParallelism asserts the batched sweep
// returns bit-identical rankings regardless of worker count — the TopK
// total order makes the merge independent of sharding.
func TestPredictDeterministicAcrossParallelism(t *testing.T) {
	base := newTestServer(t, Config{Parallelism: 1})
	for _, degree := range []int{2, 3, 8, 64} {
		s := newTestServer(t, Config{Parallelism: degree})
		for e := 0; e < cycleN; e++ {
			want, err := base.PredictInto(nil, e, 0, true, 7)
			if err != nil {
				t.Fatalf("base predict: %v", err)
			}
			got, err := s.PredictInto(nil, e, 0, true, 7)
			if err != nil {
				t.Fatalf("predict at degree %d: %v", degree, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("degree %d entity %d: %v != %v", degree, e, got, want)
			}
		}
	}
}

// TestScoreTriple checks the scoring path against the model directly.
func TestScoreTriple(t *testing.T) {
	ck := trainedCheckpoint(t)
	s := newTestServer(t, Config{})
	m, _ := model.New(ck.ModelName)
	got, err := s.ScoreTriple(0, 0, 1)
	if err != nil {
		t.Fatalf("ScoreTriple: %v", err)
	}
	want := m.Score(ck.Entities.Row(0), ck.Relations.Row(0), ck.Entities.Row(1))
	if got != want {
		t.Errorf("ScoreTriple(0,0,1) = %v, want %v", got, want)
	}
	// A true edge should outscore a non-edge under the same relation.
	far, err := s.ScoreTriple(0, 0, (0+cycleN/2)%cycleN)
	if err != nil {
		t.Fatalf("ScoreTriple far: %v", err)
	}
	if got <= far {
		t.Errorf("true edge score %v not above non-edge score %v", got, far)
	}
}

// TestNeighbors checks the similarity endpoint excludes the query and
// returns k results in descending-score order.
func TestNeighbors(t *testing.T) {
	s := newTestServer(t, Config{})
	got, err := s.NeighborsInto(nil, 5, 4)
	if err != nil {
		t.Fatalf("NeighborsInto: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d neighbors, want 4", len(got))
	}
	for i, r := range got {
		if r.ID == 5 {
			t.Errorf("result %d is the query entity itself", i)
		}
		if i > 0 && got[i-1].Score < r.Score {
			t.Errorf("results out of order at %d: %v then %v", i, got[i-1], got[i])
		}
	}
}

// TestValidation checks out-of-range ids are rejected and counted.
func TestValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.ScoreTriple(-1, 0, 0); err == nil {
		t.Error("negative head accepted")
	}
	if _, err := s.ScoreTriple(0, 99, 0); err == nil {
		t.Error("out-of-range relation accepted")
	}
	if _, err := s.PredictInto(nil, cycleN, 0, true, 3); err == nil {
		t.Error("out-of-range entity accepted")
	}
	if _, err := s.NeighborsInto(nil, -2, 3); err == nil {
		t.Error("negative neighbor query accepted")
	}
	if v := s.reg.Counter("serve.errors").Value(); v != 4 {
		t.Errorf("serve.errors = %d, want 4", v)
	}
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

// TestHTTPEndpoints drives all three /v1 routes plus the mounted
// introspection handlers over real HTTP.
func TestHTTPEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var sc struct {
		Score float32 `json:"score"`
	}
	getJSON(t, ts.URL+"/v1/score?head=0&relation=0&tail=1", &sc)
	want, _ := s.ScoreTriple(0, 0, 1)
	if sc.Score != want {
		t.Errorf("/v1/score = %v, want %v", sc.Score, want)
	}

	var pr struct {
		Results []knn.Result `json:"results"`
	}
	getJSON(t, ts.URL+"/v1/predict?entity=2&relation=0&k=3", &pr)
	if len(pr.Results) != 3 || pr.Results[0].ID != 3 {
		t.Errorf("/v1/predict results = %v, want top-1 id 3", pr.Results)
	}

	// POST body form of the same query, head direction.
	body, _ := json.Marshal(map[string]any{"entity": 3, "relation": 1, "dir": "head", "k": 2})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/predict: %v", err)
	}
	pr.Results = nil
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decoding POST response: %v", err)
	}
	resp.Body.Close()
	if len(pr.Results) != 2 || pr.Results[0].ID != 4 {
		t.Errorf("POST /v1/predict results = %v, want top-1 id 4", pr.Results)
	}

	var nb struct {
		Results []knn.Result `json:"results"`
	}
	getJSON(t, ts.URL+"/v1/neighbors?entity=1&k=3", &nb)
	if len(nb.Results) != 3 {
		t.Errorf("/v1/neighbors returned %d results, want 3", len(nb.Results))
	}

	// Mounted introspection routes answer from the same registry.
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}
	var snap map[string]json.RawMessage
	getJSON(t, ts.URL+"/metrics", &snap)
	found := false
	for name := range snap {
		if strings.HasPrefix(name, "serve.") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("/metrics has no serve.* series: %v", snap)
	}

	// Client errors come back as 400 with a JSON error body.
	for _, bad := range []string{
		"/v1/score?head=0&relation=0&tail=999",
		"/v1/score?head=x&relation=0&tail=1",
		"/v1/predict?entity=0&relation=0&dir=sideways",
		"/v1/neighbors?entity=-3",
	} {
		var e struct {
			Error string `json:"error"`
		}
		if resp := getJSON(t, ts.URL+bad, &e); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s status %d, want 400", bad, resp.StatusCode)
		} else if e.Error == "" {
			t.Errorf("GET %s: empty error body", bad)
		}
	}
}

// TestListenLoopbackGuard checks the unauthenticated listener refuses
// non-loopback binds unless explicitly allowed.
func TestListenLoopbackGuard(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.Listen("0.0.0.0:0", false); err == nil {
		t.Error("non-loopback bind accepted without allowRemote")
	}
	l, err := s.Listen("127.0.0.1:0", false)
	if err != nil {
		t.Fatalf("loopback bind refused: %v", err)
	}
	l.Close()
	l, err = s.Listen("0.0.0.0:0", true)
	if err != nil {
		t.Fatalf("allowRemote bind refused: %v", err)
	}
	l.Close()
}

// TestRequestSpans checks sampled requests produce serve.request roots the
// span analyzer attributes like training batches: lookups under "cache",
// sweeps and knn scans under "compute".
func TestRequestSpans(t *testing.T) {
	col := span.NewCollector(span.CollectorConfig{Every: 1})
	tr := col.Tracer(0, 0)
	s := newTestServer(t, Config{Tracer: tr})
	if _, err := s.ScoreTriple(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PredictInto(nil, 0, 0, true, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NeighborsInto(nil, 0, 3); err != nil {
		t.Fatal(err)
	}
	spans := col.Drain()
	roots, byName := 0, map[string]int{}
	var rootTraces []uint64
	for _, sp := range spans {
		byName[sp.Name]++
		if span.IsRoot(sp.Name) {
			if sp.Name != span.NServeRequest {
				t.Errorf("unexpected root %q", sp.Name)
			}
			roots++
			rootTraces = append(rootTraces, sp.Trace)
		}
	}
	if roots != 3 {
		t.Fatalf("%d serve.request roots, want 3 (spans: %v)", roots, byName)
	}
	if byName[span.NServeLookup] != 3 || byName[span.NServeSweep] != 1 || byName[span.NServeKNN] != 1 {
		t.Errorf("child span counts = %v, want 3 lookups, 1 sweep, 1 knn", byName)
	}
	// Children attach to their root's trace.
	rootSet := map[uint64]bool{}
	for _, tr := range rootTraces {
		rootSet[tr] = true
	}
	for _, sp := range spans {
		if !rootSet[sp.Trace] {
			t.Errorf("span %s on trace %d has no serve.request root", sp.Name, sp.Trace)
		}
	}
	// The analyzer treats each request as a batch with categorized time —
	// what `hetkg trace spans` prints.
	a := span.Analyze(spans, 5)
	if len(a.Batches) != 3 {
		t.Fatalf("Analyze found %d request paths, want 3", len(a.Batches))
	}
	if a.Total["cache"] <= 0 {
		t.Errorf("no cache-attributed time: %v", a.Total)
	}
	if a.Total["compute"] <= 0 {
		t.Errorf("no compute-attributed time: %v", a.Total)
	}
}

// TestConcurrentPredictBatches floods the server from many goroutines and
// checks every caller still gets the exact reference ranking while sweeps
// are being shared (serve.batches < requests proves coalescing happened;
// with a 1-entity sweep span budget it cannot be asserted deterministically,
// so only correctness is).
func TestConcurrentPredictBatches(t *testing.T) {
	ck := trainedCheckpoint(t)
	s := newTestServer(t, Config{Parallelism: 2, MaxBatch: 8})
	const callers = 16
	refs := make([][]knn.Result, cycleN)
	for e := range refs {
		refs[e] = referenceRank(ck, e, 0, true, 4)
	}
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var dst []knn.Result
			for i := 0; i < 50; i++ {
				e := (c + i) % cycleN
				var err error
				dst, err = s.PredictInto(dst, e, 0, true, 4)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(dst, refs[e]) {
					errs <- fmt.Errorf("caller %d iter %d: %v != %v", c, i, dst, refs[e])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got := s.reg.Counter("serve.requests").Value(); got != callers*50 {
		t.Errorf("serve.requests = %d, want %d", got, callers*50)
	}
}

// TestCheckpointFileRoundTrip exercises the on-disk path end to end the way
// the binaries do: WriteFile by the trainer, ReadFile by the server.
func TestCheckpointFileRoundTrip(t *testing.T) {
	ck := trainedCheckpoint(t)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := ckpt.WriteFile(path, ck); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	loaded, err := ckpt.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	s, err := New(Config{Checkpoint: loaded})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	got, err := s.PredictInto(nil, 0, 0, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != 1 {
		t.Errorf("top-1 after file round trip = %d, want 1", got[0].ID)
	}
}
