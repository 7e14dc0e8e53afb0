package opt

import (
	"math"
	"sync"

	"hetkg/internal/vec"
)

// AdaGrad keeps a per-row sum of squared gradients and scales each update by
// its inverse square root (Duchi et al.):
//
//	G_t += g ⊙ g
//	row -= lr * g / (sqrt(G_t) + eps)
//
// This is the update Algorithm 4 of the paper runs on the server for every
// pushed gradient. State grows with the number of distinct rows touched —
// the memory cost the paper notes as AdaGrad's drawback (§VI-A).
//
// On AVX2 machines (vec.Kernels) Apply hands its whole eight-element
// blocks to adaGradBlocks in adagrad_amd64.s: one element per vector lane,
// the loop's float32 operations in the loop's order, no FMA, and VSQRTPS,
// which rounds the float32 square root exactly as the loop's
// float32(math.Sqrt(float64(x))) does (float64 carries more than twice
// float32's precision, so rounding twice gives the once-rounded root). So
// every lane writes the loop's bits. A block whose accumulator or row
// result holds a NaN is handed back unwritten, since which NaN survives
// follows operand order; a row that overlaps its gradient goes to the loop,
// which updates one element at a time. The loop stays as the fallback and
// the reference.
type AdaGrad struct {
	lr  float32
	eps float32

	mu    sync.Mutex
	accum [][]float32 // slot → squared-gradient sum, nil until first touched
	rows  int         // slots holding an accumulator
}

// NewAdaGrad returns an AdaGrad optimizer with the given learning rate and
// numerical-stability epsilon.
func NewAdaGrad(lr, eps float32) *AdaGrad {
	return &AdaGrad{lr: lr, eps: eps}
}

// Name implements Optimizer.
func (*AdaGrad) Name() string { return "adagrad" }

// Apply implements Optimizer.
func (o *AdaGrad) Apply(slot int, row, grad []float32) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.accum = stateSlot(o.accum, slot)
	acc := o.accum[slot]
	if len(acc) != len(grad) {
		if acc == nil {
			o.rows++
		}
		acc = make([]float32, len(grad))
		o.accum[slot] = acc
	}
	i := 0
	if vec.Kernels() && len(grad) >= 8 && len(row) >= len(grad) && !vec.Overlap(len(grad), row, grad) {
		i = adaGradBlocks(row, acc, grad, o.lr, o.eps)
	}
	for ; i < len(grad); i++ {
		g := grad[i]
		acc[i] += g * g
		row[i] -= o.lr * g / (float32(math.Sqrt(float64(acc[i]))) + o.eps)
	}
}

// Reset implements Optimizer.
func (o *AdaGrad) Reset() {
	o.mu.Lock()
	o.accum, o.rows = nil, 0
	o.mu.Unlock()
}

// StateRows reports how many rows currently hold accumulator state, the
// memory-overhead figure the paper calls out for AdaGrad.
func (o *AdaGrad) StateRows() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rows
}
