// Package knn provides exact nearest-neighbor search over embedding tables
// — the primary downstream consumption of trained KGE embeddings (similar
// entities for recommendation, candidate generation for QA, deduplication).
package knn

import (
	"fmt"
	"math"

	"hetkg/internal/kg"
	"hetkg/internal/vec"
)

// Metric selects the similarity measure.
type Metric int

const (
	// Cosine similarity (higher = closer); zero vectors score 0.
	Cosine Metric = iota
	// Dot product (higher = closer).
	Dot
	// L2 ranks by negative Euclidean distance (higher = closer).
	L2
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case Dot:
		return "dot"
	case L2:
		return "l2"
	default:
		return "unknown"
	}
}

// ParseMetric converts "cosine" / "dot" / "l2" to a Metric.
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "cosine":
		return Cosine, nil
	case "dot":
		return Dot, nil
	case "l2":
		return L2, nil
	default:
		return 0, fmt.Errorf("knn: unknown metric %q (want cosine, dot, or l2)", s)
	}
}

// Result is one neighbor: the row id and its similarity score.
type Result struct {
	ID    kg.EntityID `json:"id"`
	Score float32     `json:"score"`
}

// Index searches an embedding matrix exactly: brute force over four-row
// kernels into a bounded top-k selector. At KGE scales that beats
// approximate structures until millions of rows — a 10 000×64 scan is about
// 0.3 ms, instruction-bound rather than memory-bound (DESIGN.md §9.3).
type Index struct {
	m      *vec.Matrix
	metric Metric
	norms  []float32 // cached row l2 norms for Cosine
}

// New builds an index over m. The matrix is referenced, not copied; callers
// must not resize it while searching (updates to values are fine for Dot
// and L2; Cosine caches norms at construction).
func New(m *vec.Matrix, metric Metric) (*Index, error) {
	if m == nil || m.Rows == 0 {
		return nil, fmt.Errorf("knn: empty matrix")
	}
	ix := &Index{m: m, metric: metric}
	if metric == Cosine {
		ix.norms = make([]float32, m.Rows)
		for i := 0; i < m.Rows; i++ {
			ix.norms[i] = vec.L2(m.Row(i))
		}
	}
	return ix, nil
}

// Rows returns the number of indexed rows.
func (ix *Index) Rows() int { return ix.m.Rows }

// Metric returns the similarity measure the index was built with.
func (ix *Index) Metric() Metric { return ix.metric }

// Scratch is reusable state for SearchInto: a caller-owned top-k selector
// and one tile of scores, which let the hot path of a query server run
// without a single allocation per search. The zero Scratch is ready to use
// (the first search sizes it).
type Scratch struct {
	top    TopK
	scores []float32
}

// searchTile is how many rows one kernel call scores: enough to amortize
// the call, small enough that the scores stay in L1 until they are ranked.
const searchTile = 256

// Search returns the k most similar rows to query, most similar first.
// exclude (when ≥ 0) removes one row id from the results — pass the query's
// own id for "neighbors of entity X". Search allocates its result slice;
// allocation-sensitive callers should use SearchInto.
func (ix *Index) Search(query []float32, k int, exclude kg.EntityID) ([]Result, error) {
	if k <= 0 {
		return nil, nil
	}
	var s Scratch
	return ix.SearchInto(make([]Result, 0, k), query, k, exclude, &s)
}

// SearchInto is Search with caller-provided storage: results are written
// into dst (grown from dst[:0], so pass a slice with capacity ≥ k to avoid
// growth) and the selector and score tile live in scratch, which is reused
// across calls. After the scratch has warmed up to the largest k seen, a
// search performs no allocation.
//
// The table is scored a tile at a time by the vec.*Rows kernels, whose
// results carry the bits of vec.Dot / vec.SquaredL2Dist per row, so scores
// and ranking are those of a row-by-row scan; ties rank by ascending id.
func (ix *Index) SearchInto(dst []Result, query []float32, k int, exclude kg.EntityID, scratch *Scratch) ([]Result, error) {
	dim := ix.m.Dim
	if len(query) != dim {
		return nil, fmt.Errorf("knn: query width %d, index width %d", len(query), dim)
	}
	if k <= 0 {
		return dst[:0], nil
	}
	var qNorm float32
	if ix.metric == Cosine {
		qNorm = vec.L2(query)
	}
	if scratch.scores == nil {
		scratch.scores = make([]float32, searchTile)
	}
	top := &scratch.top
	top.Reset(k)
	for lo := 0; lo < ix.m.Rows; lo += searchTile {
		hi := min(lo+searchTile, ix.m.Rows)
		scores := scratch.scores[:hi-lo]
		rows := ix.m.Data[lo*dim : hi*dim]
		switch ix.metric {
		case Cosine:
			vec.DotRows(scores, query, rows)
			for i, dot := range scores {
				scores[i] = 0
				if d := qNorm * ix.norms[lo+i]; d > 0 {
					scores[i] = dot / d
				}
			}
		case Dot:
			vec.DotRows(scores, query, rows)
		case L2:
			vec.SquaredL2DistRows(scores, query, rows)
			for i, sq := range scores {
				scores[i] = -float32(math.Sqrt(float64(sq)))
			}
		}
		for i, s := range scores {
			if id := kg.EntityID(lo + i); id != exclude && !top.Rejects(s) {
				top.Offer(id, s)
			}
		}
	}
	return top.Sorted(dst), nil
}

// Neighbors returns the k nearest rows to row id (excluding itself).
func (ix *Index) Neighbors(id kg.EntityID, k int) ([]Result, error) {
	if int(id) < 0 || int(id) >= ix.m.Rows {
		return nil, fmt.Errorf("knn: id %d out of range [0,%d)", id, ix.m.Rows)
	}
	return ix.Search(ix.m.Row(int(id)), k, id)
}

// NeighborsInto is Neighbors with caller-provided storage (see SearchInto).
func (ix *Index) NeighborsInto(dst []Result, id kg.EntityID, k int, scratch *Scratch) ([]Result, error) {
	if int(id) < 0 || int(id) >= ix.m.Rows {
		return nil, fmt.Errorf("knn: id %d out of range [0,%d)", id, ix.m.Rows)
	}
	return ix.SearchInto(dst, ix.m.Row(int(id)), k, id, scratch)
}
