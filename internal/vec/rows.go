package vec

import (
	"fmt"
	"math"
)

// The *Rows kernels score one query against a contiguous run of table rows:
// out[k] is the reduction of q against rows[k*len(q):(k+1)*len(q)]. They are
// the inner loops of every full-table sweep (link prediction, nearest
// neighbors, full-ranking evaluation), where the per-row forms above lose to
// two things a block of rows removes: one dependent add chain per row (four
// rows at a time give the core four independent chains), and, for the l1
// distance, a data-dependent branch per element. On amd64 CPUs with AVX2
// the block kernels in rows_amd64.s go further: eight rows per instruction,
// one row per vector lane.
//
// The contract is exact, not approximate: out[k] carries the same float32
// bits the per-row function (Dot, L1Dist, SquaredL2Dist) returns for that
// row. Each row keeps its own accumulator and adds its elements in index
// order, so the arithmetic per row is the per-row function's arithmetic;
// only the interleaving across rows, and which vector lane does a row's
// arithmetic, differ. The one thing interleaving can change is which NaN
// comes out when several meet (sign and payload follow the instruction's
// operand order), so a row that reduces to NaN is redone with the per-row
// function.

// DotRows stores Dot(q, row k) into out[k].
func DotRows(out, q, rows []float32) { scoreRows(out, q, rows, dotBlocks, dot4, Dot) }

// L1DistRows stores L1Dist(q, row k) into out[k].
func L1DistRows(out, q, rows []float32) { scoreRows(out, q, rows, l1DistBlocks, l1Dist4, L1Dist) }

// SquaredL2DistRows stores SquaredL2Dist(q, row k) into out[k].
func SquaredL2DistRows(out, q, rows []float32) {
	scoreRows(out, q, rows, squaredL2DistBlocks, squaredL2Dist4, SquaredL2Dist)
}

// scoreRows hands the run's whole eight-row blocks to the block kernel when
// the CPU runs them (Kernels) and the width is a multiple of 8, drives
// the four-row kernel over the rows left, and falls back to the per-row
// function for the last len(out)%4 rows and for NaN results.
func scoreRows(out, q, rows []float32,
	eight func(out, q, rows []float32),
	four func(q, r0, r1, r2, r3 []float32) (s0, s1, s2, s3 float32),
	one func(q, row []float32) float32) {
	d := len(q)
	if len(rows) != len(out)*d {
		panic(fmt.Sprintf("vec: %d floats is not %d rows of width %d", len(rows), len(out), d))
	}
	k := 0
	if Kernels() && d%8 == 0 {
		k = len(out) &^ 7
		eight(out[:k], q, rows[:k*d])
		for i, s := range out[:k] {
			if s != s {
				out[i] = one(q, rows[i*d:(i+1)*d])
			}
		}
	}
	for ; k+4 <= len(out); k += 4 {
		t := rows[k*d : (k+4)*d]
		r0, r1, r2, r3 := t[:d], t[d:2*d], t[2*d:3*d], t[3*d:]
		s0, s1, s2, s3 := four(q, r0, r1, r2, r3)
		if s0 != s0 || s1 != s1 || s2 != s2 || s3 != s3 {
			s0, s1, s2, s3 = one(q, r0), one(q, r1), one(q, r2), one(q, r3)
		}
		out[k], out[k+1], out[k+2], out[k+3] = s0, s1, s2, s3
	}
	for ; k < len(out); k++ {
		out[k] = one(q, rows[k*d:(k+1)*d])
	}
}

func dot4(q, r0, r1, r2, r3 []float32) (s0, s1, s2, s3 float32) {
	r0, r1, r2, r3 = r0[:len(q)], r1[:len(q)], r2[:len(q)], r3[:len(q)]
	for i, x := range q {
		s0 += x * r0[i]
		s1 += x * r1[i]
		s2 += x * r2[i]
		s3 += x * r3[i]
	}
	return
}

// l1Dist4 takes |x| by clearing the sign bit, which adds +0 where L1Dist's
// branch adds -0; the running sum starts at +0 and only grows, so it is
// never the -0 that would tell the two apart.
func l1Dist4(q, r0, r1, r2, r3 []float32) (s0, s1, s2, s3 float32) {
	r0, r1, r2, r3 = r0[:len(q)], r1[:len(q)], r2[:len(q)], r3[:len(q)]
	for i, x := range q {
		s0 += Abs(x - r0[i])
		s1 += Abs(x - r1[i])
		s2 += Abs(x - r2[i])
		s3 += Abs(x - r3[i])
	}
	return
}

func squaredL2Dist4(q, r0, r1, r2, r3 []float32) (s0, s1, s2, s3 float32) {
	r0, r1, r2, r3 = r0[:len(q)], r1[:len(q)], r2[:len(q)], r3[:len(q)]
	for i, x := range q {
		d0, d1, d2, d3 := x-r0[i], x-r1[i], x-r2[i], x-r3[i]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return
}

// Abs returns |x| by clearing the sign bit: no branch, unlike the `if x < 0`
// of L1Dist, which a sweep over unsorted data mispredicts every other
// element.
func Abs(x float32) float32 {
	return math.Float32frombits(math.Float32bits(x) &^ (1 << 31))
}
