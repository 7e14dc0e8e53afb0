package opt

import (
	"math"
	"sync"
)

// Adam (Kingma & Ba) keeps per-row first- and second-moment estimates with
// bias correction. The paper trains with AdaGrad; Adam is provided as the
// common modern alternative so downstream users can compare optimizers on
// their own graphs (sparse rows each keep their own step counter, the
// "lazy Adam" convention for embedding tables).
type Adam struct {
	lr    float32
	beta1 float64
	beta2 float64
	eps   float64

	mu    sync.Mutex
	state []*adamState // slot → moments, nil until first touched
	rows  int          // slots holding moments
}

type adamState struct {
	m, v []float64
	step int
}

// NewAdam returns an Adam optimizer with the standard defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float32) *Adam {
	return &Adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
}

// Name implements Optimizer.
func (*Adam) Name() string { return "adam" }

// Apply implements Optimizer.
func (o *Adam) Apply(slot int, row, grad []float32) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.state = stateSlot(o.state, slot)
	st := o.state[slot]
	if st == nil || len(st.m) != len(grad) {
		if st == nil {
			o.rows++
		}
		st = &adamState{m: make([]float64, len(grad)), v: make([]float64, len(grad))}
		o.state[slot] = st
	}
	st.step++
	c1 := 1 - math.Pow(o.beta1, float64(st.step))
	c2 := 1 - math.Pow(o.beta2, float64(st.step))
	for i, g := range grad {
		gf := float64(g)
		st.m[i] = o.beta1*st.m[i] + (1-o.beta1)*gf
		st.v[i] = o.beta2*st.v[i] + (1-o.beta2)*gf*gf
		mHat := st.m[i] / c1
		vHat := st.v[i] / c2
		row[i] -= o.lr * float32(mHat/(math.Sqrt(vHat)+o.eps))
	}
}

// Reset implements Optimizer.
func (o *Adam) Reset() {
	o.mu.Lock()
	o.state, o.rows = nil, 0
	o.mu.Unlock()
}

// StateRows reports how many rows hold moment state.
func (o *Adam) StateRows() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rows
}
