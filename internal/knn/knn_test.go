package knn

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hetkg/internal/kg"
	"hetkg/internal/vec"
)

func axisMatrix() *vec.Matrix {
	// Rows 0..3 on axes, row 4 near row 0.
	m := vec.NewMatrix(5, 4)
	m.Row(0)[0] = 1
	m.Row(1)[1] = 1
	m.Row(2)[2] = 1
	m.Row(3)[3] = 1
	m.Row(4)[0] = 0.9
	m.Row(4)[1] = 0.1
	return m
}

func TestCosineNeighbors(t *testing.T) {
	ix, err := New(axisMatrix(), Cosine)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.Neighbors(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].ID != 4 {
		t.Errorf("nearest to row 0 = %d, want 4", res[0].ID)
	}
	if res[0].Score < res[1].Score {
		t.Error("results not sorted descending")
	}
	for _, r := range res {
		if r.ID == 0 {
			t.Error("self not excluded")
		}
	}
}

func TestL2Search(t *testing.T) {
	ix, _ := New(axisMatrix(), L2)
	q := []float32{0.95, 0.05, 0, 0}
	res, err := ix.Search(q, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 4 && res[0].ID != 0 {
		t.Errorf("nearest = %d, want 0 or 4", res[0].ID)
	}
}

func TestDotSearch(t *testing.T) {
	m := vec.NewMatrix(3, 2)
	m.Row(0)[0] = 1
	m.Row(1)[0] = 10 // dot favors magnitude
	m.Row(2)[1] = 1
	ix, _ := New(m, Dot)
	res, _ := ix.Search([]float32{1, 0}, 1, -1)
	if res[0].ID != 1 {
		t.Errorf("dot nearest = %d, want 1 (largest projection)", res[0].ID)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(nil, Cosine); err == nil {
		t.Error("nil matrix accepted")
	}
	ix, _ := New(axisMatrix(), Cosine)
	if _, err := ix.Search([]float32{1}, 3, -1); err == nil {
		t.Error("wrong-width query accepted")
	}
	if _, err := ix.Neighbors(99, 3); err == nil {
		t.Error("out-of-range id accepted")
	}
	if res, err := ix.Search(make([]float32, 4), 0, -1); err != nil || res != nil {
		t.Error("k=0 should return nothing, no error")
	}
}

func TestKLargerThanRows(t *testing.T) {
	ix, _ := New(axisMatrix(), Cosine)
	res, err := ix.Neighbors(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 { // 5 rows minus self
		t.Errorf("got %d results, want 4", len(res))
	}
}

func TestZeroVectorCosine(t *testing.T) {
	m := vec.NewMatrix(2, 3)
	m.Row(1)[0] = 1
	ix, _ := New(m, Cosine)
	res, err := ix.Search(make([]float32, 3), 2, -1) // zero query
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Score != 0 {
			t.Errorf("zero query scored %v against row %d", r.Score, r.ID)
		}
	}
}

// Property: the heap-based top-k agrees with a full sort.
func TestTopKMatchesFullSort(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := vec.NewMatrix(40, 6)
		m.InitXavier(rng)
		ix, err := New(m, Cosine)
		if err != nil {
			return false
		}
		q := make([]float32, 6)
		for i := range q {
			q[i] = rng.Float32()*2 - 1
		}
		k := 1 + int(kRaw%10)
		got, err := ix.Search(q, k, -1)
		if err != nil || len(got) != k {
			return false
		}
		// Brute-force reference.
		type sc struct {
			id kg.EntityID
			s  float32
		}
		var all []sc
		qn := vec.L2(q)
		for i := 0; i < m.Rows; i++ {
			d := qn * vec.L2(m.Row(i))
			var s float32
			if d > 0 {
				s = vec.Dot(q, m.Row(i)) / d
			}
			all = append(all, sc{kg.EntityID(i), s})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].s > all[j].s })
		for i := 0; i < k; i++ {
			if got[i].Score != all[i].s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSearchIntoMatchesSearch pins the scratch path to the allocating path:
// identical results on random tables at several k.
func TestSearchIntoMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := vec.NewMatrix(200, 16)
	m.InitUniform(rng, 1)
	for _, metric := range []Metric{Cosine, Dot, L2} {
		ix, err := New(m, metric)
		if err != nil {
			t.Fatal(err)
		}
		var scratch Scratch
		dst := make([]Result, 0, 32)
		for _, k := range []int{1, 5, 32} {
			q := m.Row(rng.Intn(m.Rows))
			want, err := ix.Search(q, k, -1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.SearchInto(dst, q, k, -1, &scratch)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v k=%d: got %d results, want %d", metric, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%v k=%d result %d: got %+v, want %+v", metric, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSearchIntoZeroAlloc pins the serve hot loop's requirement: after the
// scratch warms up, a search performs no allocation.
func TestSearchIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := vec.NewMatrix(500, 32)
	m.InitUniform(rng, 1)
	ix, err := New(m, Cosine)
	if err != nil {
		t.Fatal(err)
	}
	var scratch Scratch
	dst := make([]Result, 0, 10)
	q := m.Row(3)
	// Warm up the scratch heap once.
	if _, err := ix.SearchInto(dst, q, 10, 3, &scratch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ix.SearchInto(dst, q, 10, 3, &scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SearchInto allocates %.1f objects per search, want 0", allocs)
	}
}

func benchIndex(b *testing.B, rows, dim int) *Index {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	m := vec.NewMatrix(rows, dim)
	m.InitUniform(rng, 1)
	ix, err := New(m, Cosine)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

func BenchmarkSearch(b *testing.B) {
	ix := benchIndex(b, 10000, 64)
	q := ix.m.Row(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(q, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchInto(b *testing.B) {
	ix := benchIndex(b, 10000, 64)
	q := ix.m.Row(0)
	var scratch Scratch
	dst := make([]Result, 0, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = ix.SearchInto(dst, q, 10, 0, &scratch)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestSearchMatchesPerRowScan pins the tile-kernel scan to the row-by-row
// one it replaced: for every metric, on tables on and off the four-row and
// 256-row tile boundaries and with duplicated rows forcing exact ties,
// SearchInto returns the per-row scores bit for bit in the total order
// (score descending, ties to the lower id), with the excluded row absent.
func TestSearchMatchesPerRowScan(t *testing.T) {
	for _, rows := range []int{1, 5, 259, 1003} {
		rng := rand.New(rand.NewSource(int64(rows)))
		m := vec.NewMatrix(rows, 7)
		m.InitUniform(rng, 1)
		for i := 3; i < rows; i += 3 {
			copy(m.Row(i), m.Row(rng.Intn(i)))
		}
		q := m.Row(rows / 2)
		for _, metric := range []Metric{Cosine, Dot, L2} {
			ix, err := New(m, metric)
			if err != nil {
				t.Fatal(err)
			}
			for _, exclude := range []kg.EntityID{-1, kg.EntityID(rows / 2)} {
				var want []Result
				for i := 0; i < rows; i++ {
					if kg.EntityID(i) == exclude {
						continue
					}
					var s float32
					switch metric {
					case Cosine:
						if d := vec.L2(q) * vec.L2(m.Row(i)); d > 0 {
							s = vec.Dot(q, m.Row(i)) / d
						}
					case Dot:
						s = vec.Dot(q, m.Row(i))
					case L2:
						s = -float32(math.Sqrt(float64(vec.SquaredL2Dist(q, m.Row(i)))))
					}
					want = append(want, Result{ID: kg.EntityID(i), Score: s})
				}
				sort.Slice(want, func(a, b int) bool {
					if want[a].Score != want[b].Score {
						return want[a].Score > want[b].Score
					}
					return want[a].ID < want[b].ID
				})
				k := min(40, len(want))
				got, err := ix.Search(q, 40, exclude)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != k {
					t.Fatalf("%v rows=%d exclude=%d: %d results, want %d", metric, rows, exclude, len(got), k)
				}
				for i := range got {
					if got[i].ID != want[i].ID || math.Float32bits(got[i].Score) != math.Float32bits(want[i].Score) {
						t.Fatalf("%v rows=%d exclude=%d result %d: got %v, per-row scan %v", metric, rows, exclude, i, got[i], want[i])
					}
				}
			}
		}
	}
}
