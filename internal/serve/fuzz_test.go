package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"hetkg/internal/knn"
)

// FuzzServeRequest throws arbitrary query strings and POST bodies at the
// three /v1 routes of a server over a small fixed checkpoint (every third
// row duplicated, so ties are common). Whatever arrives, the handler must
// not panic, must answer 200, 400 or 413 with a JSON body, and a 200 from
// predict or neighbors must hold between 1 and MaxK results in the
// documented order: score non-increasing, exact ties by ascending id.
func FuzzServeRequest(f *testing.F) {
	routes := []string{"/v1/score", "/v1/predict", "/v1/neighbors"}
	for _, seed := range []struct {
		route uint8
		post  bool
		data  string
	}{
		{0, false, "head=0&relation=0&tail=1"},
		{0, false, "head=0&relation=9&tail=1"},
		{0, false, "head=x"},
		{0, true, `{"head":3,"relation":1,"tail":4}`},
		{0, true, `{"head":3,"relation":1,"tail":4,"extra":1}`},
		{1, false, "entity=12&relation=1&k=5"},
		{1, false, "entity=12&relation=1&k=5&dir=head"},
		{1, false, "entity=12&relation=1&k=-5&dir=sideways"},
		{1, false, "entity=99999999999999999999&relation=1"},
		{1, false, "entity=1&relation=0&k=100000"},
		{1, false, "%zz&entity=;"},
		{1, true, `{"entity":0,"relation":0,"dir":"head","k":3}`},
		{1, true, `{"entity":0,"relation":0,"k":3}{"entity":1}`},
		{1, true, `{"entity":0,"relation":0,"k":1e99}`},
		{1, true, `{"entity":0,"relation":0,"dir":"` + strings.Repeat("t", 2*maxBodyBytes) + `"}`},
		{1, true, `null`},
		{1, true, `[[[[`},
		{1, true, ``},
		{2, false, "entity=7&k=4"},
		{2, false, "entity=7&k=0"},
		{2, false, "entity=-1"},
		{2, true, `{"entity":7,"k":4}`},
		{2, true, `{"entity":7,"k":4} trailing`},
		{2, true, "\xff\xfe{"},
	} {
		f.Add(seed.route, seed.post, seed.data)
	}

	const maxK = 16
	s, err := New(Config{Checkpoint: tiedCheckpoint(f, "transe", 40, 4, 1), MaxK: maxK})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()

	f.Fuzz(func(t *testing.T, route uint8, post bool, data string) {
		path := routes[int(route)%len(routes)]
		// Built by hand: httptest.NewRequest panics on input it cannot parse.
		req := &http.Request{
			Method: http.MethodGet, URL: &url.URL{Path: path, RawQuery: data},
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: http.Header{}, Body: http.NoBody,
		}
		if post {
			req.Method, req.URL.RawQuery = http.MethodPost, ""
			req.Body = io.NopCloser(strings.NewReader(data))
			req.ContentLength = int64(len(data))
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		var reply struct {
			Error   string       `json:"error"`
			Score   *float32     `json:"score"`
			Results []knn.Result `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("%s: status %d body is not JSON (%v): %q", path, rec.Code, err, rec.Body)
		}
		switch {
		case rec.Code != http.StatusOK:
			if reply.Error == "" {
				t.Fatalf("%s: status %d without an error message: %s", path, rec.Code, rec.Body)
			}
		case path == "/v1/score":
			if reply.Score == nil {
				t.Fatalf("%s: 200 without a score: %s", path, rec.Body)
			}
		default:
			if n := len(reply.Results); n < 1 || n > maxK {
				t.Fatalf("%s: %d results, want 1…%d: %s", path, n, maxK, rec.Body)
			}
			for i := 1; i < len(reply.Results); i++ {
				a, b := reply.Results[i-1], reply.Results[i]
				if a.Score < b.Score || a.Score == b.Score && a.ID >= b.ID {
					t.Fatalf("%s: result %d %v before %v breaks the order: %s", path, i-1, a, b, rec.Body)
				}
			}
		}
	})
}
