package serve

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hetkg/internal/ckpt"
	"hetkg/internal/kg"
	"hetkg/internal/knn"
	"hetkg/internal/model"
	"hetkg/internal/vec"
)

// tiedCheckpoint builds a random checkpoint for modelName at base dimension
// d in which every third entity row is a copy of an earlier one, so sweeps
// meet candidates whose scores are exactly equal and the id tie-break
// decides the order.
func tiedCheckpoint(t testing.TB, modelName string, rows, d int, seed int64) *ckpt.Checkpoint {
	t.Helper()
	m, err := model.New(modelName)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ents := vec.NewMatrix(rows, m.EntityDim(d))
	ents.InitUniform(rng, 1)
	for i := 3; i < rows; i += 3 {
		copy(ents.Row(i), ents.Row(rng.Intn(i)))
	}
	rels := vec.NewMatrix(2, m.RelationDim(d))
	rels.InitUniform(rng, 1)
	return &ckpt.Checkpoint{ModelName: modelName, Dim: ents.Dim, Dataset: "synthetic", Entities: ents, Relations: rels}
}

func sameResults(got, want []knn.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float32bits(got[i].Score) != math.Float32bits(want[i].Score) {
			return false
		}
	}
	return true
}

// TestPredictMatchesBruteForce is the serving end of the bit-identity
// contract: on tables smaller than, equal to and far larger than the sweep
// tile, in both directions, for a vec-kernel model, a model-kernel model and
// a Score-loop fallback model, PredictInto returns exactly the brute-force
// model.Score ranking — ids in the total order (score descending, ties to the
// lower id), scores bit for bit.
func TestPredictMatchesBruteForce(t *testing.T) {
	for _, name := range []string{"transe", "complex", "transh"} {
		for _, rows := range []int{1, 5, sweepTile, 1003} {
			ck := tiedCheckpoint(t, name, rows, 6, int64(rows))
			s := newTestServer(t, Config{Checkpoint: ck})
			for _, tails := range []bool{true, false} {
				for q := 0; q < 12; q++ {
					e, rel, k := (q*37)%rows, q%2, 1+(q*5)%23
					got, err := s.PredictInto(nil, e, rel, tails, k)
					if err != nil {
						t.Fatal(err)
					}
					want := referenceRank(ck, e, rel, tails, min(k, rows))
					if !sameResults(got, want) {
						t.Fatalf("%s rows=%d tails=%v entity=%d rel=%d k=%d:\n got %v\nwant %v",
							name, rows, tails, e, rel, k, got, want)
					}
				}
			}
		}
	}
}

// TestPredictNaNRowLandsWhereItDid pins what a NaN-scoring candidate does to
// a ranking. knn.TopK's order calls NaN neither better nor worse than
// anything, so such a row is kept if it is among the first k the sweep
// offers and never admitted afterwards — not a ranking anyone wants, but the
// one the per-row sweep produced, and the tile sweep must not change it
// silently. The expected ids were produced by this test's body at the commit
// before the tile sweep.
func TestPredictNaNRowLandsWhereItDid(t *testing.T) {
	ck := tiedCheckpoint(t, "transe", 50, 6, 3)
	nan := float32(math.NaN())
	ck.Entities.Row(2)[1] = nan  // among the first k offered
	ck.Entities.Row(40)[0] = nan // offered once the selector is full
	const want = "[20 2 1 29 7]"
	s := newTestServer(t, Config{Checkpoint: ck})
	got, err := s.PredictInto(nil, 7, 0, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]kg.EntityID, len(got))
	for i, r := range got {
		ids[i] = r.ID
	}
	if fmt.Sprint(ids) != want {
		t.Errorf("ids %v, the per-row sweep returned %s (results %v)", ids, want, got)
	}
}

// TestTieOrderOnBothEndpoints pins the documented total order — score
// descending, exact ties to the lower id — on /v1/predict and, now that both
// select through knn.TopK, on /v1/neighbors, whose private heap used to
// return tied rows in heap-pop order.
func TestTieOrderOnBothEndpoints(t *testing.T) {
	ck := tiedCheckpoint(t, "transe", 60, 6, 11)
	for _, group := range [][]int{{50, 9, 31, 22}, {58, 4, 41}} { // rows made identical, listed out of id order
		for _, id := range group[1:] {
			copy(ck.Entities.Row(id), ck.Entities.Row(group[0]))
		}
	}
	s := newTestServer(t, Config{Checkpoint: ck})
	check := func(what string, got []knn.Result) {
		t.Helper()
		ties := 0
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.Score < b.Score || a.Score == b.Score && a.ID > b.ID {
				t.Errorf("%s: result %d %v precedes %v", what, i-1, a, b)
			}
			if a.Score == b.Score {
				ties++
			}
		}
		if ties < 5 {
			t.Errorf("%s: only %d exact ties among %d results; the table no longer exercises the tie-break", what, ties, len(got))
		}
	}
	pred, err := s.PredictInto(nil, 0, 0, true, 59)
	if err != nil {
		t.Fatal(err)
	}
	check("predict", pred)
	if want := referenceRank(ck, 0, 0, true, 59); !sameResults(pred, want) {
		t.Errorf("predict:\n got %v\nwant %v", pred, want)
	}

	nbrs, err := s.NeighborsInto(nil, 0, 59)
	if err != nil {
		t.Fatal(err)
	}
	check("neighbors", nbrs)
	// Brute-force cosine neighbors of entity 0 under the same total order.
	q := ck.Entities.Row(0)
	var want []knn.Result
	for i := 1; i < ck.Entities.Rows; i++ {
		var score float32
		if d := vec.L2(q) * vec.L2(ck.Entities.Row(i)); d > 0 {
			score = vec.Dot(q, ck.Entities.Row(i)) / d
		}
		want = append(want, knn.Result{ID: kg.EntityID(i), Score: score})
	}
	sortTotalOrder(want)
	if !sameResults(nbrs, want) {
		t.Errorf("neighbors:\n got %v\nwant %v", nbrs, want)
	}
}

// TestRequestBodyIsBoundedAndSingle covers the POST decoder: a body over the
// cap is a 413, a second JSON value or any other trailing data is a 400,
// both with a JSON error body, and trailing whitespace is still fine.
func TestRequestBodyIsBoundedAndSingle(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	post := func(path, body string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("POST %s %.40q: Content-Type %q", path, body, ct)
		}
		if rec.Code != http.StatusOK && !strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("POST %s %.40q: status %d without a JSON error body: %s", path, body, rec.Code, rec.Body)
		}
		return rec
	}
	const predict = `{"entity":0,"relation":0,"k":3}`
	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/v1/predict", predict, http.StatusOK},
		{"/v1/predict", predict + " \n\t ", http.StatusOK},
		{"/v1/predict", predict + predict, http.StatusBadRequest},
		{"/v1/predict", predict + "}", http.StatusBadRequest},
		{"/v1/predict", predict + " garbage", http.StatusBadRequest},
		{"/v1/score", `{"head":0,"relation":0,"tail":1} 7`, http.StatusBadRequest},
		{"/v1/neighbors", `{"entity":0,"k":2} []`, http.StatusBadRequest},
		{"/v1/neighbors", `{"entity":0,"k":2}`, http.StatusOK},
		{"/v1/predict", predict + strings.Repeat(" ", maxBodyBytes), http.StatusRequestEntityTooLarge},
		{"/v1/predict", `{"entity":0,"relation":0,"dir":"` + strings.Repeat("x", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"/v1/score", strings.Repeat("[", 2*maxBodyBytes), http.StatusRequestEntityTooLarge},
	} {
		if rec := post(c.path, c.body); rec.Code != c.want {
			t.Errorf("POST %s %.60q (%d bytes): status %d, want %d: %s", c.path, c.body, len(c.body), rec.Code, c.want, rec.Body)
		}
	}
}
