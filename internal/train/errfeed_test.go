package train

import (
	"math"
	"math/rand"
	"testing"

	"hetkg/internal/metrics"
	"hetkg/internal/ps"
)

// testKeys is the key space the error-feedback tests index residuals by.
var testKeys = ps.KeySpace{NumEntity: 16, NumRelation: 4}

// TestErrorFeedbackInvariant pins the property that makes top-k safe: over
// any number of pushes, the sum of what was sent plus the residual still
// pending equals the sum of the raw gradients, per coordinate — dropped
// mass is deferred, never lost.
func TestErrorFeedbackInvariant(t *testing.T) {
	const width, rounds = 64, 50
	rng := rand.New(rand.NewSource(7))
	ef := newErrorFeedback(0.125, testKeys, nil)
	k := ps.EntityKey(3)
	rawSum := make([]float64, width)
	sentSum := make([]float64, width)
	for round := 0; round < rounds; round++ {
		g := make([]float32, width)
		for i := range g {
			g[i] = float32(rng.NormFloat64())
			rawSum[i] += float64(g[i])
		}
		ef.Sparsify(k, g)
		nonzero := 0
		for i, v := range g {
			sentSum[i] += float64(v)
			if v != 0 {
				nonzero++
			}
		}
		if want := ef.keepCount(width); nonzero > want {
			t.Fatalf("round %d: %d coordinates survived, keep is %d", round, nonzero, want)
		}
	}
	resid := ef.residual(k, width)
	for i := range rawSum {
		got := sentSum[i] + float64(resid[i])
		if math.Abs(got-rawSum[i]) > 1e-3 {
			t.Errorf("coordinate %d: sent %g + residual %g != raw %g", i, sentSum[i], resid[i], rawSum[i])
		}
	}
}

// TestErrorFeedbackSelection pins the deterministic selection rule: the
// keep-th largest magnitudes survive, ties at the threshold fill the quota
// in ascending index order, and everything dropped lands in the residual.
func TestErrorFeedbackSelection(t *testing.T) {
	ef := newErrorFeedback(0.5, testKeys, nil)
	k := ps.EntityKey(1)
	g := []float32{3, -1, 2, 2, -2, 0.5, 0, -4}
	ef.Sparsify(k, g)
	// keep = 4 of 8; magnitudes sorted: 4, 3, 2, 2, 2, 1, 0.5, 0.
	// Threshold 2 with one strict-winner pair (4, 3): two tied slots go to
	// the lowest indices holding |g| == 2, i.e. indices 2 and 3, not 4.
	want := []float32{3, 0, 2, 2, 0, 0, 0, -4}
	for i := range g {
		if g[i] != want[i] {
			t.Errorf("g[%d] = %v, want %v (full: %v)", i, g[i], want[i], g)
		}
	}
	wantResid := []float32{0, -1, 0, 0, -2, 0.5, 0, 0}
	for i, r := range ef.residual(k, len(g)) {
		if r != wantResid[i] {
			t.Errorf("resid[%d] = %v, want %v", i, r, wantResid[i])
		}
	}
	// The residual compensates the next push: index 4 accumulated -2 twice
	// and must now win a slot.
	g2 := []float32{0, 0, 0, 0, -2, 0, 0, 0}
	ef.Sparsify(k, g2)
	if g2[4] != -4 {
		t.Errorf("residual not folded into next push: got %v at 4, want -4", g2[4])
	}
}

// TestErrorFeedbackDeterminism: identical gradient streams produce
// identical sparsified streams (the selection has no map-order or
// randomness dependence).
func TestErrorFeedbackDeterminism(t *testing.T) {
	mk := func() [][]float32 {
		rng := rand.New(rand.NewSource(11))
		out := make([][]float32, 20)
		for r := range out {
			g := make([]float32, 32)
			for i := range g {
				g[i] = float32(rng.NormFloat64())
			}
			out[r] = g
		}
		return out
	}
	a, b := mk(), mk()
	efA := newErrorFeedback(0.25, testKeys, nil)
	efB := newErrorFeedback(0.25, testKeys, nil)
	k := ps.EntityKey(9)
	for r := range a {
		efA.Sparsify(k, a[r])
		efB.Sparsify(k, b[r])
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("round %d: runs diverged at %d: %v vs %v", r, i, a[r][i], b[r][i])
			}
		}
	}
}

// TestErrorFeedbackCounters: the dropped-rows metric counts every zeroed
// coordinate, and keepCount clamps to [1, w].
func TestErrorFeedbackCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	ef := newErrorFeedback(0.125, testKeys, reg)
	g := make([]float32, 64)
	for i := range g {
		g[i] = float32(i + 1)
	}
	ef.Sparsify(ps.EntityKey(0), g)
	dropped := reg.Counter(metrics.MPSCodecRowsTopkDropped).Value()
	if want := int64(64 - ef.keepCount(64)); dropped != want {
		t.Errorf("dropped counter = %d, want %d", dropped, want)
	}
	if ef.keepCount(64) != 8 {
		t.Errorf("keepCount(64) = %d, want 8", ef.keepCount(64))
	}
	if ef.keepCount(2) != 1 {
		t.Errorf("keepCount(2) = %d at ratio 0.125, want the floor of 1", ef.keepCount(2))
	}
	full := newErrorFeedback(1, testKeys, reg)
	if full.keepCount(64) != 64 {
		t.Errorf("keepCount at ratio 1 = %d, want 64", full.keepCount(64))
	}
	g2 := []float32{1, 2}
	full.Sparsify(ps.EntityKey(1), g2)
	if g2[0] != 1 || g2[1] != 2 {
		t.Errorf("ratio-1 sparsifier changed the row: %v", g2)
	}
}

// TestTopKTrainingConvergence is the tentpole's accuracy pin: top-k push
// sparsification with error feedback must converge to an MRR within noise
// of the dense fp32 run — the whole point of the EF buffer.
func TestTopKTrainingConvergence(t *testing.T) {
	dense := testConfig(t, 2)
	dense.Epochs = 3
	dres, err := Run(dense)
	if err != nil {
		t.Fatal(err)
	}
	sparse := testConfig(t, 2)
	sparse.Epochs = 3
	sparse.Codec = ps.ProfileTopK
	sparse.TopKRatio = 0.25
	sres, err := Run(sparse)
	if err != nil {
		t.Fatalf("topk training: %v", err)
	}
	if sres.Epochs[len(sres.Epochs)-1].Loss >= sres.Epochs[0].Loss {
		t.Error("topk training did not learn")
	}
	if sres.Final.MRR < dres.Final.MRR*0.9 {
		t.Errorf("topk+EF MRR %.3f fell outside noise of dense %.3f", sres.Final.MRR, dres.Final.MRR)
	}
	dropped := sres.Metrics.Counter(metrics.MPSCodecRowsTopkDropped).Value()
	if dropped == 0 {
		t.Error("no coordinates were dropped; sparsifier not wired")
	}
	wire := sres.Metrics.Counter(metrics.MPSCodecBytesWire).Value()
	raw := sres.Metrics.Counter(metrics.MPSCodecBytesRaw).Value()
	if wire == 0 || raw == 0 {
		t.Fatal("codec byte counters not wired")
	}
	if wire >= raw {
		t.Errorf("topk wire bytes %d not below raw %d", wire, raw)
	}
}
