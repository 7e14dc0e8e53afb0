package model

import (
	"hetkg/internal/vec"
)

// TransE is the translational-distance model of Bordes et al.: a relation is
// a translation in embedding space, score(h,r,t) = -||h + r - t||_p for
// p ∈ {1, 2}. The paper's headline experiments use TransE with l1.
type TransE struct {
	// Norm selects the distance: 1 for l1 (default in the paper), 2 for l2.
	Norm int
}

// Name implements Model.
func (m TransE) Name() string {
	if m.Norm == 2 {
		return "TransE-L2"
	}
	return "TransE"
}

// EntityDim implements Model: entities live in R^d.
func (TransE) EntityDim(d int) int { return d }

// RelationDim implements Model: relations live in the same R^d.
func (TransE) RelationDim(d int) int { return d }

// Score implements Model. l1 takes |d| by sign bit (vec.Abs), not by a
// branch on d's random sign: +0 where `if d < 0` added -0, to a sum that
// starts at +0 and only grows. A NaN sum is redone with that branch, whose
// operand order decides which NaN survives (DESIGN §6).
func (m TransE) Score(h, r, t []float32) float32 {
	var s float32
	if m.Norm == 2 {
		for i := range h {
			d := h[i] + r[i] - t[i]
			s += d * d
		}
		return -s
	}
	for i := range h {
		s += vec.Abs(h[i] + r[i] - t[i])
	}
	if s != s {
		s = 0
		for i := range h {
			if d := h[i] + r[i] - t[i]; d < 0 {
				s -= d
			} else {
				s += d
			}
		}
	}
	return -s
}

// Grad implements Model.
//
// l1: ∂Score/∂h = -sign(h+r-t), ∂/∂r likewise, ∂/∂t = +sign(h+r-t), sign
// from two comparisons, no branch (+0 for a ±0 or NaN residual).
// l2 (squared): ∂Score/∂h = -2(h+r-t), ∂/∂t = +2(h+r-t).
// l1 hands its whole eight-coordinate blocks to the AVX2 kernel where it
// may (gradBlocks) and runs the rest here.
func (m TransE) Grad(h, r, t []float32, dScore float32, gh, gr, gt []float32) {
	if m.Norm != 2 {
		if k := gradBlocks(transEL1GradAVX2, len(h), h, r, t, dScore, gh, gr, gt); k > 0 {
			h, r, t, gh, gr, gt = h[k:], r[k:], t[k:], gh[k:], gr[k:], gt[k:]
		}
	}
	r, t = r[:len(h)], t[:len(h)]
	for i, x := range h {
		d := x + r[i] - t[i]
		var g float32
		if m.Norm == 2 {
			g = 2 * d
		} else {
			g = float32(b2i(d > 0) - b2i(d < 0))
		}
		v := dScore * g
		if gh != nil {
			gh[i] -= v
		}
		if gr != nil {
			gr[i] -= v
		}
		if gt != nil {
			gt[i] += v
		}
	}
}

// b2i is 1 for true and 0 for false; the compiler turns it into a SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// DistMult is the diagonal bilinear semantic-matching model of Yang et al.:
// score(h,r,t) = <h, r, t> = Σ_i h_i · r_i · t_i. It handles symmetric
// relations only, which is why the paper pairs it with TransE.
type DistMult struct{}

// Name implements Model.
func (DistMult) Name() string { return "DistMult" }

// EntityDim implements Model.
func (DistMult) EntityDim(d int) int { return d }

// RelationDim implements Model.
func (DistMult) RelationDim(d int) int { return d }

// Score implements Model.
func (DistMult) Score(h, r, t []float32) float32 {
	var s float32
	for i := range h {
		s += h[i] * r[i] * t[i]
	}
	return s
}

// Grad implements Model: ∂/∂h = r⊙t, ∂/∂r = h⊙t, ∂/∂t = h⊙r.
func (DistMult) Grad(h, r, t []float32, dScore float32, gh, gr, gt []float32) {
	for i := range h {
		if gh != nil {
			gh[i] += dScore * r[i] * t[i]
		}
		if gr != nil {
			gr[i] += dScore * h[i] * t[i]
		}
		if gt != nil {
			gt[i] += dScore * h[i] * r[i]
		}
	}
}

// TransH (Wang et al.) projects entities onto a relation-specific hyperplane
// before translating: score = -||h⊥ + d_r - t⊥||² with
// h⊥ = h - (wᵀh)w. The relation row packs [d_r ; w_r] (width 2d); w is
// normalized lazily at score time so PS updates need no special casing.
type TransH struct{}

// Name implements Model.
func (TransH) Name() string { return "TransH" }

// EntityDim implements Model.
func (TransH) EntityDim(d int) int { return d }

// RelationDim implements Model: translation vector plus hyperplane normal.
func (TransH) RelationDim(d int) int { return 2 * d }

// Score implements Model.
func (TransH) Score(h, r, t []float32) float32 {
	d := len(h)
	dr, w := r[:d], r[d:]
	wn := vec.L2(w)
	if wn == 0 {
		wn = 1
	}
	wh, wt := vec.Dot2(w, h, t)
	wh /= wn * wn
	wt /= wn * wn
	var s float32
	for i := 0; i < d; i++ {
		diff := (h[i] - wh*w[i]) + dr[i] - (t[i] - wt*w[i])
		s += diff * diff
	}
	return -s
}

// Grad implements Model. The hyperplane normal w is treated as constant
// within an iteration (its own gradient flows only through the translation
// residual), the standard simplification used by TransH implementations.
func (TransH) Grad(h, r, t []float32, dScore float32, gh, gr, gt []float32) {
	d := len(h)
	dr, w := r[:d], r[d:]
	wn := vec.L2(w)
	if wn == 0 {
		wn = 1
	}
	inv := 1 / (wn * wn)
	wh, wt := vec.Dot2(w, h, t)
	wh *= inv
	wt *= inv
	// diff_i = h⊥_i + dr_i - t⊥_i ;  Score = -Σ diff².
	// ∂Score/∂dr_i = -2 diff_i.
	// ∂Score/∂h_j = -2 Σ_i diff_i ∂diff_i/∂h_j with ∂diff_i/∂h_j =
	// δ_ij - w_i w_j inv (projection matrix), symmetric for t with flipped sign.
	//
	// diff is five flops per element, so the second pass recomputes it
	// instead of staging it in a scratch slice — the gradient path stays
	// allocation-free (Grad runs once per scored pair in the training hot
	// loop).
	var wDotDiff float32
	for i := 0; i < d; i++ {
		wDotDiff += w[i] * ((h[i] - wh*w[i]) + dr[i] - (t[i] - wt*w[i]))
	}
	for j := 0; j < d; j++ {
		diffJ := (h[j] - wh*w[j]) + dr[j] - (t[j] - wt*w[j])
		proj := diffJ - wDotDiff*inv*w[j]
		if gh != nil {
			gh[j] += dScore * -2 * proj
		}
		if gt != nil {
			gt[j] += dScore * 2 * proj
		}
		if gr != nil {
			gr[j] += dScore * -2 * diffJ // ∂/∂dr
			// ∂/∂w via the projection terms, treating wn as constant:
			// diff depends on w through -wh·w_j + wt·w_j and through wh,wt.
			gw := -2 * (-(wh-wt)*diffJ - wDotDiff*inv*(h[j]-t[j]))
			gr[d+j] += dScore * gw
		}
	}
}

// ComplEx (Trouillon et al.) embeds entities and relations in C^d and
// scores with Re(<h, r, conj(t)>), handling asymmetric relations. Rows pack
// [real ; imag] (width 2d).
type ComplEx struct{}

// Name implements Model.
func (ComplEx) Name() string { return "ComplEx" }

// EntityDim implements Model.
func (ComplEx) EntityDim(d int) int { return 2 * d }

// RelationDim implements Model.
func (ComplEx) RelationDim(d int) int { return 2 * d }

// Score implements Model:
// Re(Σ h·r·conj(t)) = Σ (hR rR tR + hI rR tI + hR rI tI − hI rI tR).
func (ComplEx) Score(h, r, t []float32) float32 {
	d := len(h) / 2
	hR, hI := h[:d], h[d:]
	rR, rI := r[:d], r[d:]
	tR, tI := t[:d], t[d:]
	var s float32
	for i := 0; i < d; i++ {
		s += hR[i]*rR[i]*tR[i] + hI[i]*rR[i]*tI[i] + hR[i]*rI[i]*tI[i] - hI[i]*rI[i]*tR[i]
	}
	return s
}

// Grad implements Model. Whole eight-coordinate blocks go to the AVX2
// kernel where they may (gradBlocks); the loop runs the rest.
func (ComplEx) Grad(h, r, t []float32, dScore float32, gh, gr, gt []float32) {
	d := len(h) / 2
	i0 := gradBlocks(complExGradAVX2, 2*d, h, r, t, dScore, gh, gr, gt)
	hR, hI := h[:d], h[d:]
	rR, rI := r[:d], r[d:]
	tR, tI := t[:d], t[d:]
	for i := i0; i < d; i++ {
		if gh != nil {
			gh[i] += dScore * (rR[i]*tR[i] + rI[i]*tI[i])
			gh[d+i] += dScore * (rR[i]*tI[i] - rI[i]*tR[i])
		}
		if gr != nil {
			gr[i] += dScore * (hR[i]*tR[i] + hI[i]*tI[i])
			gr[d+i] += dScore * (hR[i]*tI[i] - hI[i]*tR[i])
		}
		if gt != nil {
			gt[i] += dScore * (hR[i]*rR[i] - hI[i]*rI[i])
			gt[d+i] += dScore * (hI[i]*rR[i] + hR[i]*rI[i])
		}
	}
}
