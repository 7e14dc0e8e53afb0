package plan

import (
	"fmt"

	"hetkg/internal/plan/benchfmt"
)

// Report is the outcome of comparing a snapshot against its baseline.
type Report struct {
	// Compared counts the baseline (row, field) pairs found in both files.
	Compared int
	// Problems lists what fails the gate, one report line each: a value that
	// is not the baseline's ("row/field: base -> cur DIFFERS", in the
	// shortest form that round-trips, so a one-ulp drift shows), and a
	// baseline row or field the snapshot lacks — a measurement that
	// vanished cannot be declared safe — and a baseline with nothing to
	// compare.
	Problems []string
}

// OK reports whether the gate passes: nothing missing, nothing different,
// something compared.
func (r *Report) OK() bool { return len(r.Problems) == 0 }

// Summary renders the gate verdict in one line.
func (r *Report) Summary() string {
	if r.OK() {
		return fmt.Sprintf("compare: OK (%d values identical)", r.Compared)
	}
	return fmt.Sprintf("compare: FAIL (%d problems; %d values compared)", len(r.Problems), r.Compared)
}

// Compare gates cur against base: every field under `values` of every
// baseline row must be present in cur and equal to the last bit. There is no
// tolerance and no better direction — training is bit-deterministic, so any
// drift, a lower loss or fewer bytes included, is a behaviour change to re-pin
// deliberately with the diff shown. `wall` is never compared. Fields or rows
// only in cur are ignored: new measurements extend the baseline. Files from
// different GOARCHes are refused: their floats may legitimately differ. A
// baseline with no value to compare — no rows, or only wall-clock readings —
// fails: a gate that compared nothing has passed nothing.
func Compare(cur, base *benchfmt.File) (*Report, error) {
	if c, b := cur.Meta[benchfmt.MetaGoArch], base.Meta[benchfmt.MetaGoArch]; c != "" && b != "" && c != b {
		return nil, fmt.Errorf("plan: baseline %s was produced on goarch %s, the snapshot on %s; "+
			"results are bit-exact only within one architecture, re-pin the baseline on %s",
			base.Name, b, c, c)
	}
	rep := &Report{}
	problem := func(format string, args ...any) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}
	for _, brow := range base.Rows {
		crow, ok := cur.RowByName(brow.Name)
		if !ok {
			problem("%s: MISSING ROW", brow.Name)
			continue
		}
		for _, field := range brow.Fields() {
			cv, ok := crow.Values[field]
			if !ok {
				problem("%s/%s: MISSING FIELD", brow.Name, field)
				continue
			}
			rep.Compared++
			if bv := brow.Values[field]; cv != bv {
				problem("%s/%s: %v -> %v DIFFERS", brow.Name, field, bv, cv)
			}
		}
	}
	if rep.Compared == 0 && rep.OK() {
		problem("%s: NOTHING COMPARED (the baseline records no values outside wall)", base.Name)
	}
	return rep, nil
}
