package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// numericGrad estimates ∂Score/∂x[i] by central differences.
func numericGrad(score func() float32, x []float32, i int) float32 {
	const eps = 1e-3
	orig := x[i]
	x[i] = orig + eps
	up := float64(score())
	x[i] = orig - eps
	down := float64(score())
	x[i] = orig
	return float32((up - down) / (2 * eps))
}

func randomRows(t *testing.T, m Model, d int, seed int64) (h, r, tl []float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h = make([]float32, m.EntityDim(d))
	r = make([]float32, m.RelationDim(d))
	tl = make([]float32, m.EntityDim(d))
	for _, v := range [][]float32{h, r, tl} {
		for i := range v {
			v[i] = rng.Float32()*2 - 1
		}
	}
	return h, r, tl
}

// checkGrad verifies the analytic gradient of a model against central
// differences on every coordinate of h, r, and t.
func checkGrad(t *testing.T, m Model, d int, seed int64, tol float32) {
	t.Helper()
	h, r, tl := randomRows(t, m, d, seed)
	gh := make([]float32, len(h))
	gr := make([]float32, len(r))
	gt := make([]float32, len(tl))
	m.Grad(h, r, tl, 1.0, gh, gr, gt)
	score := func() float32 { return m.Score(h, r, tl) }
	for i := range h {
		if want := numericGrad(score, h, i); !close32(gh[i], want, tol) {
			t.Errorf("%s ∂/∂h[%d] = %v, numeric %v", m.Name(), i, gh[i], want)
		}
	}
	for i := range r {
		if want := numericGrad(score, r, i); !close32(gr[i], want, tol) {
			t.Errorf("%s ∂/∂r[%d] = %v, numeric %v", m.Name(), i, gr[i], want)
		}
	}
	for i := range tl {
		if want := numericGrad(score, tl, i); !close32(gt[i], want, tol) {
			t.Errorf("%s ∂/∂t[%d] = %v, numeric %v", m.Name(), i, gt[i], want)
		}
	}
}

func close32(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := float32(1)
	if b > 1 || b < -1 {
		if b < 0 {
			scale = -b
		} else {
			scale = b
		}
	}
	return d <= tol*scale
}

func TestTransEL2Gradient(t *testing.T) { checkGrad(t, TransE{Norm: 2}, 8, 1, 2e-2) }
func TestDistMultGradient(t *testing.T) { checkGrad(t, DistMult{}, 8, 2, 2e-2) }

// TestComplExGradient checks widths below one eight-coordinate block, one
// block (the AVX2 kernel alone) and one block plus a remainder.
func TestComplExGradient(t *testing.T) {
	for _, d := range []int{6, 8, 12} {
		checkGrad(t, ComplEx{}, d, 3, 2e-2)
	}
}

func TestTransHDrGradient(t *testing.T) {
	// TransH: check h, t, and the translation part of r exactly; the w part
	// uses the constant-norm simplification so it is checked loosely below.
	m := TransH{}
	d := 6
	h, r, tl := randomRows(t, m, d, 4)
	gh := make([]float32, len(h))
	gr := make([]float32, len(r))
	gt := make([]float32, len(tl))
	m.Grad(h, r, tl, 1.0, gh, gr, gt)
	score := func() float32 { return m.Score(h, r, tl) }
	for i := range h {
		if want := numericGrad(score, h, i); !close32(gh[i], want, 3e-2) {
			t.Errorf("TransH ∂/∂h[%d] = %v, numeric %v", i, gh[i], want)
		}
		if want := numericGrad(score, tl, i); !close32(gt[i], want, 3e-2) {
			t.Errorf("TransH ∂/∂t[%d] = %v, numeric %v", i, gt[i], want)
		}
	}
	for i := 0; i < d; i++ { // translation half of r is exact
		if want := numericGrad(score, r, i); !close32(gr[i], want, 3e-2) {
			t.Errorf("TransH ∂/∂dr[%d] = %v, numeric %v", i, gr[i], want)
		}
	}
}

func TestTransEL1ScoreAndGradDirection(t *testing.T) {
	m := TransE{Norm: 1}
	h := []float32{1, 0}
	r := []float32{0, 1}
	tl := []float32{1, 1}
	// h + r - t = 0 → perfect triple, score 0 (maximal for TransE).
	if s := m.Score(h, r, tl); s != 0 {
		t.Errorf("perfect triple score = %v, want 0", s)
	}
	tl2 := []float32{3, 1}
	if s := m.Score(h, r, tl2); s != -2 {
		t.Errorf("imperfect triple score = %v, want -2", s)
	}
	// Gradient ascent on the score must move t toward h+r.
	gh := make([]float32, 2)
	gr := make([]float32, 2)
	gt := make([]float32, 2)
	m.Grad(h, r, tl2, 1.0, gh, gr, gt)
	if gt[0] >= 0 {
		t.Errorf("∂Score/∂t[0] = %v, want negative (t[0] too large)", gt[0])
	}
}

func TestDistMultSymmetry(t *testing.T) {
	// DistMult cannot distinguish (h,r,t) from (t,r,h) — a documented
	// limitation (§II): verify the symmetry holds exactly.
	m := DistMult{}
	h, r, tl := randomRows(t, m, 8, 9)
	if a, b := m.Score(h, r, tl), m.Score(tl, r, h); !close32(a, b, 1e-5) {
		t.Errorf("DistMult not symmetric: %v vs %v", a, b)
	}
}

func TestComplExAsymmetry(t *testing.T) {
	m := ComplEx{}
	h, r, tl := randomRows(t, m, 8, 10)
	if a, b := m.Score(h, r, tl), m.Score(tl, r, h); a == b {
		t.Error("ComplEx unexpectedly symmetric on random rows")
	}
}

func TestModelDims(t *testing.T) {
	tests := []struct {
		m          Model
		entD, relD int
	}{
		{TransE{Norm: 1}, 16, 16},
		{DistMult{}, 16, 16},
		{TransH{}, 16, 32},
		{ComplEx{}, 32, 32},
	}
	for _, tc := range tests {
		if got := tc.m.EntityDim(16); got != tc.entD {
			t.Errorf("%s EntityDim(16) = %d, want %d", tc.m.Name(), got, tc.entD)
		}
		if got := tc.m.RelationDim(16); got != tc.relD {
			t.Errorf("%s RelationDim(16) = %d, want %d", tc.m.Name(), got, tc.relD)
		}
	}
}

func TestNewModel(t *testing.T) {
	for _, name := range Names() {
		m, err := New(name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if m.Name() == "" {
			t.Errorf("New(%q) has empty Name", name)
		}
	}
	if _, err := New("nope"); err == nil {
		t.Error("unknown model accepted")
	}
	if m, _ := New("transe_l2"); m.Name() != "TransE-L2" {
		t.Error("transe_l2 did not map to the l2 variant")
	}
}

func TestNilGradBuffersSkipped(t *testing.T) {
	for _, name := range Names() {
		m, _ := New(name)
		h, r, tl := randomRows(t, m, 8, 11)
		// Must not panic with nil buffers.
		m.Grad(h, r, tl, 1.0, nil, nil, nil)
		gh := make([]float32, len(h))
		m.Grad(h, r, tl, 1.0, gh, nil, nil)
	}
}

func TestLogisticLoss(t *testing.T) {
	l := LogisticLoss{}
	loss, dPos, dNeg := l.PosNeg(10, -10)
	if loss > 0.01 {
		t.Errorf("well-separated pair loss = %v, want ≈0", loss)
	}
	loss, dPos, dNeg = l.PosNeg(-5, 5)
	if loss < 9 {
		t.Errorf("inverted pair loss = %v, want ≈10", loss)
	}
	if dPos >= 0 {
		t.Errorf("dPos = %v, want negative (raise the positive score)", dPos)
	}
	if dNeg <= 0 {
		t.Errorf("dNeg = %v, want positive (lower the negative score)", dNeg)
	}
}

func TestLogisticLossGradientNumeric(t *testing.T) {
	l := LogisticLoss{}
	const eps = 1e-3
	for _, pair := range [][2]float32{{0.5, -0.2}, {-1, 2}, {3, 3}} {
		_, dPos, dNeg := l.PosNeg(pair[0], pair[1])
		up, _, _ := l.PosNeg(pair[0]+eps, pair[1])
		down, _, _ := l.PosNeg(pair[0]-eps, pair[1])
		if want := (up - down) / (2 * eps); !close32(dPos, want, 1e-2) {
			t.Errorf("dPos at %v = %v, numeric %v", pair, dPos, want)
		}
		up, _, _ = l.PosNeg(pair[0], pair[1]+eps)
		down, _, _ = l.PosNeg(pair[0], pair[1]-eps)
		if want := (up - down) / (2 * eps); !close32(dNeg, want, 1e-2) {
			t.Errorf("dNeg at %v = %v, numeric %v", pair, dNeg, want)
		}
	}
}

func TestRankingLoss(t *testing.T) {
	l := RankingLoss{Margin: 1}
	if loss, dPos, dNeg := l.PosNeg(5, 1); loss != 0 || dPos != 0 || dNeg != 0 {
		t.Errorf("satisfied margin should be 0/0/0, got %v/%v/%v", loss, dPos, dNeg)
	}
	loss, dPos, dNeg := l.PosNeg(1, 0.5)
	if !close32(loss, 0.5, 1e-6) || dPos != -1 || dNeg != 1 {
		t.Errorf("active margin: got %v/%v/%v, want 0.5/-1/1", loss, dPos, dNeg)
	}
}

func TestNewLoss(t *testing.T) {
	if _, err := NewLoss("logistic", 0); err != nil {
		t.Error(err)
	}
	if l, err := NewLoss("ranking", 2); err != nil || l.(RankingLoss).Margin != 2 {
		t.Errorf("ranking loss: %v %v", l, err)
	}
	if _, err := NewLoss("nope", 0); err == nil {
		t.Error("unknown loss accepted")
	}
}

func TestSoftplusStability(t *testing.T) {
	if v := softplus(100); v != 100 {
		t.Errorf("softplus(100) = %v, want 100", v)
	}
	if v := softplus(-100); v != 0 {
		t.Errorf("softplus(-100) = %v, want 0", v)
	}
	if v := softplus(0); !close32(v, float32(math.Log(2)), 1e-4) {
		t.Errorf("softplus(0) = %v, want ln2", v)
	}
}

// Property: ranking loss is non-negative and zero iff the margin holds.
func TestRankingLossProperty(t *testing.T) {
	l := RankingLoss{Margin: 1}
	f := func(p, n float32) bool {
		if math.IsNaN(float64(p)) || math.IsNaN(float64(n)) {
			return true
		}
		loss, _, _ := l.PosNeg(p, n)
		if loss < 0 {
			return false
		}
		return (loss == 0) == (p-n >= 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSigmoid(t *testing.T) {
	if s := Sigmoid(0); !close32(s, 0.5, 1e-6) {
		t.Errorf("Sigmoid(0) = %v, want 0.5", s)
	}
	if s := Sigmoid(100); !close32(s, 1, 1e-6) {
		t.Errorf("Sigmoid(100) = %v, want 1", s)
	}
}

func TestRESCALGradient(t *testing.T) { checkGrad(t, RESCAL{}, 5, 12, 2e-2) }
func TestHolEGradient(t *testing.T)   { checkGrad(t, HolE{}, 6, 13, 2e-2) }

func TestRESCALGeneralizesDistMult(t *testing.T) {
	// With a diagonal interaction matrix, RESCAL must score exactly like
	// DistMult on the diagonal entries.
	d := 6
	rng := rand.New(rand.NewSource(14))
	h := make([]float32, d)
	tl := make([]float32, d)
	diag := make([]float32, d)
	for i := 0; i < d; i++ {
		h[i] = rng.Float32()
		tl[i] = rng.Float32()
		diag[i] = rng.Float32()
	}
	full := make([]float32, d*d)
	for i := 0; i < d; i++ {
		full[i*d+i] = diag[i]
	}
	if a, b := (RESCAL{}).Score(h, full, tl), (DistMult{}).Score(h, diag, tl); !close32(a, b, 1e-4) {
		t.Errorf("RESCAL with diagonal M (%v) != DistMult (%v)", a, b)
	}
}

func TestHolECorrelationIdentity(t *testing.T) {
	// (h ⋆ t)_0 = <h, t>, so with r = e_0 the score is the plain inner
	// product.
	h := []float32{1, 2, 3}
	tl := []float32{4, 5, 6}
	r := []float32{1, 0, 0}
	if got := (HolE{}).Score(h, r, tl); got != 32 {
		t.Errorf("HolE e0 score = %v, want <h,t> = 32", got)
	}
}

func TestRotatEGradient(t *testing.T) { checkGrad(t, RotatE{}, 6, 15, 2e-2) }

func TestRotatEIdentityRotation(t *testing.T) {
	// θ = 0 everywhere: RotatE degenerates to −‖h − t‖², so h == t is the
	// perfect triple.
	m := RotatE{}
	d := 4
	h := make([]float32, 2*d)
	for i := range h {
		h[i] = float32(i) * 0.1
	}
	r := make([]float32, d) // zero phases
	if s := m.Score(h, r, h); s != 0 {
		t.Errorf("identity rotation of h onto itself scored %v, want 0", s)
	}
}

func TestRotatEPreservesNorm(t *testing.T) {
	// A rotation never changes an entity's modulus, so for any θ,
	// score(h, θ, t) with ‖h‖ ≠ ‖t‖ is bounded away from 0 by the norm gap.
	m := RotatE{}
	h := []float32{1, 0, 0, 0, 0, 0} // modulus 1 in coord 0
	tl := []float32{3, 0, 0, 0, 0, 0}
	for _, theta := range []float32{0, 0.5, 1.5, 3.0} {
		r := []float32{theta, 0, 0}
		// |h∘r − t| ≥ |‖t‖−‖h‖| = 2 per coordinate 0 → score ≤ −4.
		if s := m.Score(h, r, tl); s > -4+1e-4 {
			t.Errorf("θ=%v: score %v violates the rotation norm bound", theta, s)
		}
	}
}

// TestBaseDim checks the table-shape test serving and evaluation run before
// they trust a checkpoint's widths.
func TestBaseDim(t *testing.T) {
	for _, name := range Names() {
		m, _ := New(name)
		for _, d := range []int{1, 5, 64} {
			got, err := BaseDim(m, m.EntityDim(d), m.RelationDim(d))
			if err != nil || got != d {
				t.Errorf("%s: BaseDim(%d, %d) = %d, %v; want %d", name, m.EntityDim(d), m.RelationDim(d), got, err, d)
			}
		}
	}
	for _, c := range []struct {
		name     string
		ent, rel int
	}{
		{"rotate", 8, 8}, {"transh", 8, 8}, {"complex", 8, 4}, {"complex", 7, 7},
		{"transe", 8, 4}, {"rescal", 4, 4}, {"transe", 0, 0},
	} {
		m, _ := New(c.name)
		if _, err := BaseDim(m, c.ent, c.rel); err == nil {
			t.Errorf("%s: BaseDim(%d, %d) accepted widths no base dimension produces", c.name, c.ent, c.rel)
		}
	}
}
