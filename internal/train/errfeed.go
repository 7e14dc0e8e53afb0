package train

import (
	"math"
	"sort"

	"hetkg/internal/metrics"
	"hetkg/internal/ps"
)

// errorFeedback is a worker's top-k gradient sparsifier with error
// feedback, the push half of the "topk" codec profile. Before a push, each
// gradient row is compensated with the row's accumulated residual, its
// largest-|g| coordinates are kept, and everything else is zeroed back
// INTO the residual — so dropped mass is re-sent on a later push instead
// of being lost, which is what preserves convergence (the EF invariant:
// at any point, sum of pushed values + residual = sum of raw gradients,
// per coordinate, up to float addition error).
//
// The sparsified rows then hit the wire through the "sparse" row codec,
// which ships only nonzero coordinates. The cache's local copy is updated
// with the raw gradient before sparsification (worker.processBatch), so
// only the cross-machine exchange is approximated — mirroring how the
// delta codec leans on the cache's staleness tolerance.
//
// errorFeedback is confined to its owning worker goroutine. Residual rows
// are allocated once per touched key and reused for the whole run.
type errorFeedback struct {
	// ratio is the kept fraction per row; keep = max(1, round(ratio·w)).
	ratio float64
	space ps.KeySpace
	resid [][]float32 // dense index → residual row, nil until first touched
	abs   []float64   // selection scratch, reused across rows

	dropped *metrics.Counter // nil when unwired
}

func newErrorFeedback(ratio float64, space ps.KeySpace, reg *metrics.Registry) *errorFeedback {
	ef := &errorFeedback{ratio: ratio, space: space, resid: make([][]float32, space.Len())}
	if reg != nil {
		ef.dropped = reg.Counter(metrics.MPSCodecRowsTopkDropped)
	}
	return ef
}

// keepCount returns how many coordinates of a width-w row survive.
func (ef *errorFeedback) keepCount(w int) int {
	return min(max(int(ef.ratio*float64(w)+0.5), 1), w)
}

// residual returns k's residual row, allocating it zeroed on first touch.
func (ef *errorFeedback) residual(k ps.Key, w int) []float32 {
	i, _ := ef.space.Index(k)
	if ef.resid[i] == nil {
		ef.resid[i] = make([]float32, w)
	}
	return ef.resid[i]
}

// Sparsify compensates g with k's residual and keeps only the top
// largest-|g| coordinates in place; dropped coordinates move back into the
// residual. Selection is deterministic: the magnitude threshold is the
// keep-th largest |g|, strict winners all survive, and ties at the
// threshold fill the remaining quota in ascending index order.
func (ef *errorFeedback) Sparsify(k ps.Key, g []float32) {
	w := len(g)
	if w == 0 {
		return
	}
	r := ef.residual(k, w)
	for i := range g {
		g[i] += r[i]
	}
	keep := ef.keepCount(w)
	if keep >= w {
		clear(r)
		return
	}
	if cap(ef.abs) < w {
		ef.abs = make([]float64, w)
	}
	abs := ef.abs[:w]
	for i, v := range g {
		abs[i] = math.Abs(float64(v))
	}
	sort.Float64s(abs)
	thr := abs[w-keep]
	// Quota for coordinates sitting exactly at the threshold: keep minus
	// the strict winners.
	quota := keep
	for _, a := range abs[w-keep:] {
		if a > thr {
			quota--
		}
	}
	var droppedHere int64
	for i, v := range g {
		switch a := math.Abs(float64(v)); {
		case a > thr:
			r[i] = 0
		case a == thr && quota > 0:
			quota--
			r[i] = 0
		default:
			r[i] = g[i]
			g[i] = 0
			droppedHere++
		}
	}
	if ef.dropped != nil {
		ef.dropped.Add(droppedHere)
	}
}
