package knn

import (
	"math/rand"
	"sort"
	"testing"

	"hetkg/internal/kg"
)

// TestTopKMatchesSort checks Offer/Sorted against a full sort under the
// serving total order, including duplicate scores.
func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 5, 32} {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(200)
			all := make([]Result, n)
			tk := NewTopK(k)
			tk.Reset(k)
			for i := range all {
				all[i] = Result{ID: kg.EntityID(i), Score: float32(rng.Intn(20))}
				tk.Offer(all[i].ID, all[i].Score)
			}
			sort.Slice(all, func(a, b int) bool { return worse(all[b], all[a]) })
			want := all
			if len(want) > k {
				want = want[:k]
			}
			got := tk.Sorted(nil)
			if len(got) != len(want) {
				t.Fatalf("k=%d n=%d: %d results, want %d", k, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d n=%d: got[%d] = %v, want %v", k, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTopKMergeInvariance checks the property the batcher relies on: merging
// per-shard top-ks yields the same result as one global top-k, for any
// split point.
func TestTopKMergeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, k = 300, 10
	all := make([]Result, n)
	global := NewTopK(k)
	global.Reset(k)
	for i := range all {
		all[i] = Result{ID: kg.EntityID(i), Score: float32(rng.Intn(30))}
		global.Offer(all[i].ID, all[i].Score)
	}
	want := global.Sorted(nil)
	for _, cut := range []int{1, 37, 150, 299} {
		a, b, m := NewTopK(k), NewTopK(k), NewTopK(k)
		a.Reset(k)
		b.Reset(k)
		m.Reset(k)
		for _, r := range all[:cut] {
			a.Offer(r.ID, r.Score)
		}
		for _, r := range all[cut:] {
			b.Offer(r.ID, r.Score)
		}
		for _, r := range a.Items() {
			m.Offer(r.ID, r.Score)
		}
		for _, r := range b.Items() {
			m.Offer(r.ID, r.Score)
		}
		got := m.Sorted(nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cut %d: got[%d] = %v, want %v", cut, i, got[i], want[i])
			}
		}
	}
}
