package knn

import "hetkg/internal/kg"

// TopK selects the k best results under a total order (score descending,
// ties to the lower id) with a bounded min-heap over a reusable backing
// array. The total order makes the selected set — and its sorted output —
// independent of offer order, so a scan's result does not depend on the
// order it visits rows, and top-ks of disjoint parts merge into the top-k
// of the whole. Sifts are hand rolled (container/heap boxes every pushed
// value), so a warmed TopK performs no allocation. The zero TopK is ready to
// use.
type TopK struct {
	k int
	h []Result
}

// Reset empties the selector and sets the bound for the next use. A k
// larger than any before grows the backing array (allocates).
func (t *TopK) Reset(k int) {
	t.k = k
	t.h = t.h[:0]
}

// worse reports whether a ranks strictly below b.
func worse(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// Rejects reports that Offer would drop a candidate with this score whatever
// its id: the selector is full and the score is below its weakest. It is
// small enough to inline, and a full-table scan asks it before paying for
// the Offer call, because past the first few hundred rows nearly every
// candidate is one of these. False promises nothing — Offer still decides.
func (t *TopK) Rejects(score float32) bool {
	return len(t.h) == t.k && (t.k == 0 || score < t.h[0].Score)
}

// Offer considers one candidate.
func (t *TopK) Offer(id kg.EntityID, score float32) {
	r := Result{ID: id, Score: score}
	if len(t.h) < t.k {
		t.h = append(t.h, r)
		// Sift up: the root is the worst of the current top-k.
		i := len(t.h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !worse(t.h[i], t.h[p]) {
				break
			}
			t.h[i], t.h[p] = t.h[p], t.h[i]
			i = p
		}
		return
	}
	if t.k == 0 || !worse(t.h[0], r) {
		return
	}
	t.h[0] = r
	t.siftDown(0)
}

func (t *TopK) siftDown(i int) {
	n := len(t.h)
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < n && worse(t.h[l], t.h[w]) {
			w = l
		}
		if r < n && worse(t.h[r], t.h[w]) {
			w = r
		}
		if w == i {
			return
		}
		t.h[i], t.h[w] = t.h[w], t.h[i]
		i = w
	}
}

// Sorted drains the selector into dst, best first. dst is grown from
// dst[:0]; pass capacity ≥ k to avoid allocation. The selector is empty
// afterwards (Reset before reuse).
func (t *TopK) Sorted(dst []Result) []Result {
	n := len(t.h)
	if cap(dst) < n {
		dst = make([]Result, n)
	} else {
		dst = dst[:n]
	}
	for i := n - 1; i >= 0; i-- {
		dst[i] = t.h[0]
		last := len(t.h) - 1
		t.h[0] = t.h[last]
		t.h = t.h[:last]
		t.siftDown(0)
	}
	return dst
}
