package model

import (
	"fmt"

	"hetkg/internal/vec"
)

// Sweep is one partial triple prepared for scoring against every row of the
// entity table — the shape of link prediction, online (/v1/predict) and
// offline (full-ranking evaluation). Reset fixes the known entity, the
// relation and the direction; Score then fills in a contiguous run of
// candidate rows at a time:
//
//	tails:  out[k] = m.Score(anchor, rel, row k)
//	heads:  out[k] = m.Score(row k, rel, anchor)
//
// with exactly the float32 bits m.Score returns for that row on the same
// build, so rankings, tie order and every metric digit are those of the
// per-row loop. What makes it faster is only what is exact: everything that
// depends on the query alone is computed once in Reset — h+r (TransE
// tails), h⊙r (DistMult tails), the four h·r products (ComplEx tails), the
// rotated head (RotatE tails), the sin/cos table (RotatE heads) — and the
// candidates are scored four rows per pass by branch-free kernels that keep
// one accumulator per row and add its elements in index order (see the
// vec.*Rows kernels). Where nothing is exact to hoist and the per-row loop
// is not latency-bound (ComplEx heads), and for the models whose score does
// not factor over the candidate (TransH, RESCAL, HolE), Score is the plain
// m.Score loop: callers have one code path, models implement nothing new.
// ScoreEach takes candidates that lie anywhere (a training chunk's
// negatives) under the same contract.
//
// A Sweep is reusable (Reset keeps its buffer) and, between Resets,
// read-only: any number of goroutines may call Score or ScoreEach on
// disjoint runs.
type Sweep struct {
	m           Model
	anchor, rel []float32
	tails       bool

	// vecRows (a distance, negated into a score when neg) or four is the
	// fast kernel Reset chose; both nil means the m.Score loop.
	vecRows func(out, q, rows []float32)
	neg     bool
	four    func(s *Sweep, r0, r1, r2, r3 []float32) (s0, s1, s2, s3 float32)
	// each is the eight-row kernel ScoreEach hands whole blocks to
	// (ComplEx on AVX2 machines, sweep_amd64.s); nil where there is none.
	each func(out, q []float32, rows [][]float32)

	q []float32 // hoisted per-query vectors, layout private to the kernel; capacity survives Reset
}

// Reset prepares the sweep for (anchor, rel, ?) when tails is true and
// (?, rel, anchor) otherwise. The rows are referenced until the next Reset;
// their widths must be the model's for some base dimension (see BaseDim).
func (s *Sweep) Reset(m Model, anchor, rel []float32, tails bool) {
	*s = Sweep{m: m, anchor: anchor, rel: rel, tails: tails, q: s.q[:0]}
	switch m := m.(type) {
	case TransE:
		if !tails {
			s.four = l1Heads4
			if m.Norm == 2 {
				s.four = l2Heads4
			}
			return
		}
		vec.Add(s.hoist(len(anchor)), anchor, rel)
		s.vecRows, s.neg = vec.L1DistRows, true
		if m.Norm == 2 {
			s.vecRows = vec.SquaredL2DistRows
		}
	case DistMult:
		if !tails {
			s.four = distMultHeads4
			return
		}
		vec.Mul(s.hoist(len(anchor)), anchor, rel)
		s.vecRows = vec.DotRows
	case ComplEx:
		// Both hoists interleave their four vectors per coordinate, the
		// layout the kernels read (one pointer, four floats per column).
		d := len(anchor) / 2
		kernel := vec.Kernels() && len(anchor) >= 8 && len(anchor)%8 == 0
		if !tails {
			// (nR·rR)·tR: Score multiplies the candidate in first, so
			// nothing is exact to hoist, and the kernel gets r and t as
			// they are: q = [rR, rI, tR, tI] per coordinate.
			if kernel {
				tR, tI, rR, rI := anchor[:d], anchor[d:][:d], rel[:d], rel[d:][:d]
				q := s.hoist(4 * d)
				for i := range tR {
					q[4*i], q[4*i+1], q[4*i+2], q[4*i+3] = rR[i], rI[i], tR[i], tI[i]
				}
				s.each = complExHeadsEach
			}
			return
		}
		hR, hI, rR, rI := anchor[:d], anchor[d:][:d], rel[:d], rel[d:][:d]
		q := s.hoist(4 * d)
		for i := range hR {
			q[4*i], q[4*i+1], q[4*i+2], q[4*i+3] = hR[i]*rR[i], hI[i]*rR[i], hR[i]*rI[i], hI[i]*rI[i]
		}
		s.four = complExTails4
		if kernel {
			s.each = complExTailsEach
		}
	case RotatE:
		d := len(rel)
		q := s.hoist(2 * d)
		if !tails {
			for i, theta := range rel {
				q[i], q[d+i] = sincos32(theta)
			}
			s.four = rotatEHeads4
			return
		}
		hR, hI := anchor[:d], anchor[d:]
		for i, theta := range rel {
			sin, cos := sincos32(theta)
			q[i] = hR[i]*cos - hI[i]*sin
			q[d+i] = hR[i]*sin + hI[i]*cos
		}
		s.four = rotatETails4
	}
}

// hoist returns the sweep's n-float query buffer, grown only when a wider
// query than any before arrives.
func (s *Sweep) hoist(n int) []float32 {
	if cap(s.q) < n {
		s.q = make([]float32, n)
	}
	s.q = s.q[:n]
	return s.q
}

// Score stores the score of each of the len(out) candidate rows packed in
// rows (entity-table order, len(out)·width floats) into out.
func (s *Sweep) Score(out, rows []float32) {
	w := len(s.anchor)
	if len(rows) != len(out)*w {
		panic(fmt.Sprintf("model: sweep over %d floats is not %d rows of width %d", len(rows), len(out), w))
	}
	k := 0
	switch {
	case s.vecRows != nil:
		s.vecRows(out, s.q, rows)
		k = len(out)
	case s.four != nil:
		for ; k+4 <= len(out); k += 4 {
			t := rows[k*w : (k+4)*w]
			out[k], out[k+1], out[k+2], out[k+3] = s.four(s, t[:w], t[w:2*w], t[2*w:3*w], t[3*w:])
		}
	}
	for ; k < len(out); k++ {
		out[k] = s.one(rows[k*w : (k+1)*w])
	}
	for k, v := range out {
		switch {
		case v != v:
			// When several NaNs meet, the one that survives follows the
			// instruction's operand order, which the kernels do not share
			// with m.Score; a NaN score is therefore taken from m.Score.
			out[k] = s.one(rows[k*w : (k+1)*w])
		case s.neg:
			out[k] = -v
		}
	}
}

// ScoreEach is Score for candidate rows that lie anywhere, not packed in
// table order: out[k] is the score of rows[k], with the bits m.Score
// returns for it. It is how a training chunk scores a positive's negatives
// (computeShard in internal/train), so training, evaluation and serving
// score candidates through one path.
//
// Whole eight-row blocks go to the model's eight-row kernel where it has
// one (ComplEx, both directions, on AVX2 machines), then runs of four to
// its four-row kernel, and the rest to m.Score. The vecRows models (TransE
// and DistMult tails) score every row with m.Score: their kernels take
// contiguous rows only, and their distances come back negated. A row that
// is not exactly the query's width is m.Score's to score or refuse, so
// then every row is; a NaN result is redone with m.Score.
func (s *Sweep) ScoreEach(out []float32, rows [][]float32) {
	if len(rows) != len(out) {
		panic(fmt.Sprintf("model: %d scores for %d rows", len(out), len(rows)))
	}
	w := len(s.anchor)
	for _, row := range rows {
		if len(row) != w {
			for k, row := range rows {
				out[k] = s.one(row)
			}
			return
		}
	}
	k := 0
	if s.each != nil {
		k = len(out) &^ 7
		s.each(out[:k], s.q, rows[:k])
	}
	if s.four != nil {
		for ; k+4 <= len(out); k += 4 {
			out[k], out[k+1], out[k+2], out[k+3] = s.four(s, rows[k], rows[k+1], rows[k+2], rows[k+3])
		}
	}
	for ; k < len(out); k++ {
		out[k] = s.one(rows[k])
	}
	for k, v := range out {
		if v != v {
			out[k] = s.one(rows[k]) // see Score
		}
	}
}

// one is the per-row reference: the score of a single candidate row.
func (s *Sweep) one(row []float32) float32 {
	if s.tails {
		return s.m.Score(s.anchor, s.rel, row)
	}
	return s.m.Score(row, s.rel, s.anchor)
}

// The four-row kernels below mirror their model's Score expression operand
// for operand; only the candidate rows (and so the accumulators) are four.

func l1Heads4(s *Sweep, c0, c1, c2, c3 []float32) (s0, s1, s2, s3 float32) {
	r, t := s.rel, s.anchor
	r, c0, c1, c2, c3 = r[:len(t)], c0[:len(t)], c1[:len(t)], c2[:len(t)], c3[:len(t)]
	for i, ti := range t {
		ri := r[i]
		s0 += vec.Abs(c0[i] + ri - ti)
		s1 += vec.Abs(c1[i] + ri - ti)
		s2 += vec.Abs(c2[i] + ri - ti)
		s3 += vec.Abs(c3[i] + ri - ti)
	}
	return -s0, -s1, -s2, -s3
}

func l2Heads4(s *Sweep, c0, c1, c2, c3 []float32) (s0, s1, s2, s3 float32) {
	r, t := s.rel, s.anchor
	r, c0, c1, c2, c3 = r[:len(t)], c0[:len(t)], c1[:len(t)], c2[:len(t)], c3[:len(t)]
	for i, ti := range t {
		ri := r[i]
		d0, d1, d2, d3 := c0[i]+ri-ti, c1[i]+ri-ti, c2[i]+ri-ti, c3[i]+ri-ti
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return -s0, -s1, -s2, -s3
}

func distMultHeads4(s *Sweep, c0, c1, c2, c3 []float32) (s0, s1, s2, s3 float32) {
	r, t := s.rel, s.anchor
	r, c0, c1, c2, c3 = r[:len(t)], c0[:len(t)], c1[:len(t)], c2[:len(t)], c3[:len(t)]
	for i, ti := range t {
		ri := r[i]
		s0 += c0[i] * ri * ti
		s1 += c1[i] * ri * ti
		s2 += c2[i] * ri * ti
		s3 += c3[i] * ri * ti
	}
	return
}

// complExTails4 reads q = [hR·rR, hI·rR, hR·rI, hI·rI] per coordinate.
func complExTails4(s *Sweep, t0, t1, t2, t3 []float32) (s0, s1, s2, s3 float32) {
	d := len(s.q) / 4
	t0R, t0I := t0[:d], t0[d:][:d]
	t1R, t1I := t1[:d], t1[d:][:d]
	t2R, t2I := t2[:d], t2[d:][:d]
	t3R, t3I := t3[:d], t3[d:][:d]
	q := s.q
	for i := 0; i < d && len(q) >= 4; i++ {
		a, b, c, e := q[0], q[1], q[2], q[3]
		q = q[4:]
		s0 += a*t0R[i] + b*t0I[i] + c*t0I[i] - e*t0R[i]
		s1 += a*t1R[i] + b*t1I[i] + c*t1I[i] - e*t1R[i]
		s2 += a*t2R[i] + b*t2I[i] + c*t2I[i] - e*t2R[i]
		s3 += a*t3R[i] + b*t3I[i] + c*t3I[i] - e*t3R[i]
	}
	return
}

// rotatETails4 reads q = [Re(h∘e^{iθ}) ; Im(h∘e^{iθ})], the rotated head.
func rotatETails4(s *Sweep, t0, t1, t2, t3 []float32) (s0, s1, s2, s3 float32) {
	d := len(s.q) / 2
	aR, aI := s.q[:d], s.q[d:][:d]
	t0R, t0I := t0[:d], t0[d:][:d]
	t1R, t1I := t1[:d], t1[d:][:d]
	t2R, t2I := t2[:d], t2[d:][:d]
	t3R, t3I := t3[:d], t3[d:][:d]
	for i := 0; i < d; i++ {
		ar, ai := aR[i], aI[i]
		d0R, d0I := ar-t0R[i], ai-t0I[i]
		d1R, d1I := ar-t1R[i], ai-t1I[i]
		d2R, d2I := ar-t2R[i], ai-t2I[i]
		d3R, d3I := ar-t3R[i], ai-t3I[i]
		s0 += d0R*d0R + d0I*d0I
		s1 += d1R*d1R + d1I*d1I
		s2 += d2R*d2R + d2I*d2I
		s3 += d3R*d3R + d3I*d3I
	}
	return -s0, -s1, -s2, -s3
}

// rotatEHeads4 reads q = [sin θ ; cos θ] in place of RotatE.Score's
// math.Sincos per element per candidate. Rotating a candidate is a dozen
// independent flops per element, so the loop is throughput-bound and the
// four rows are scored one after the other, not interleaved.
func rotatEHeads4(s *Sweep, c0, c1, c2, c3 []float32) (s0, s1, s2, s3 float32) {
	return rotatEHead(s, c0), rotatEHead(s, c1), rotatEHead(s, c2), rotatEHead(s, c3)
}

func rotatEHead(s *Sweep, c []float32) float32 {
	d := len(s.q) / 2
	sin, cos := s.q[:d], s.q[d:][:d]
	tR, tI := s.anchor[:d], s.anchor[d:][:d]
	cR, cI := c[:d], c[d:][:d]
	var acc float32
	for i := 0; i < d; i++ {
		aR := cR[i]*cos[i] - cI[i]*sin[i]
		aI := cR[i]*sin[i] + cI[i]*cos[i]
		dR := aR - tR[i]
		dI := aI - tI[i]
		acc += dR*dR + dI*dI
	}
	return -acc
}
