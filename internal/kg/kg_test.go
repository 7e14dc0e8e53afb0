package kg

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func tinyGraph(t *testing.T) *Graph {
	t.Helper()
	triples := []Triple{
		{0, 0, 1},
		{1, 0, 2},
		{2, 1, 0},
		{0, 1, 3},
		{3, 0, 0},
	}
	g, err := NewGraph("tiny", 4, 2, triples)
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	return g
}

func TestNewGraphValidation(t *testing.T) {
	tests := []struct {
		name    string
		ne, nr  int
		triples []Triple
		wantErr bool
	}{
		{"ok", 2, 1, []Triple{{0, 0, 1}}, false},
		{"empty-universe", 0, 1, nil, true},
		{"no-relations", 2, 0, nil, true},
		{"head-out-of-range", 2, 1, []Triple{{2, 0, 1}}, true},
		{"tail-out-of-range", 2, 1, []Triple{{0, 0, 5}}, true},
		{"relation-out-of-range", 2, 1, []Triple{{0, 1, 1}}, true},
		{"negative-entity", 2, 1, []Triple{{-1, 0, 1}}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewGraph(tc.name, tc.ne, tc.nr, tc.triples)
			if (err != nil) != tc.wantErr {
				t.Errorf("NewGraph err = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestDegrees(t *testing.T) {
	g := tinyGraph(t)
	// entity 0 appears in triples 0,2,3,4 → degree 4
	wantDeg := []int{4, 2, 2, 2}
	got := g.EntityDegrees()
	for i, w := range wantDeg {
		if got[i] != w {
			t.Errorf("degree(%d) = %d, want %d", i, got[i], w)
		}
		if g.Degree(EntityID(i)) != w {
			t.Errorf("Degree(%d) = %d, want %d", i, g.Degree(EntityID(i)), w)
		}
	}
}

func TestSelfLoopCountedOnce(t *testing.T) {
	g := MustNewGraph("loop", 2, 1, []Triple{{0, 0, 0}, {0, 0, 1}})
	if d := g.Degree(0); d != 2 {
		t.Errorf("self-loop degree = %d, want 2 (loop once + edge once)", d)
	}
	if inc := g.IncidentTriples(0); len(inc) != 2 {
		t.Errorf("incident triples = %v, want 2 entries", inc)
	}
}

func TestIncidentTriples(t *testing.T) {
	g := tinyGraph(t)
	inc := g.IncidentTriples(1)
	if len(inc) != 2 {
		t.Fatalf("IncidentTriples(1) = %v, want 2 entries", inc)
	}
	for _, ti := range inc {
		tr := g.Triples[ti]
		if tr.Head != 1 && tr.Tail != 1 {
			t.Errorf("triple %v not incident to entity 1", tr)
		}
	}
}

func TestRelationCounts(t *testing.T) {
	g := tinyGraph(t)
	got := g.RelationCounts()
	if got[0] != 3 || got[1] != 2 {
		t.Errorf("RelationCounts = %v, want [3 2]", got)
	}
}

func TestSubgraphKeepsUniverse(t *testing.T) {
	g := tinyGraph(t)
	sub := g.Subgraph("sub", []int32{0, 3})
	if sub.NumEntity != g.NumEntity || sub.NumRel != g.NumRel {
		t.Error("Subgraph changed universe sizes")
	}
	if sub.NumTriples() != 2 {
		t.Errorf("Subgraph has %d triples, want 2", sub.NumTriples())
	}
	if sub.Triples[1] != g.Triples[3] {
		t.Errorf("Subgraph triple = %v, want %v", sub.Triples[1], g.Triples[3])
	}
}

func TestTripleSet(t *testing.T) {
	s := NewTripleSet([]Triple{{0, 0, 1}, {1, 0, 2}})
	if !s.Contains(Triple{0, 0, 1}) {
		t.Error("Contains missed a member")
	}
	if s.Contains(Triple{9, 9, 9}) {
		t.Error("Contains reported a non-member")
	}
	if d := NewTripleSet([]Triple{{0, 0, 1}, {1, 0, 2}}, []Triple{{0, 0, 1}}); d.Len() != 2 {
		t.Errorf("Len with a duplicate triple = %d, want 2", d.Len())
	}
}

func TestSplitTriples(t *testing.T) {
	triples := make([]Triple, 100)
	for i := range triples {
		triples[i] = Triple{EntityID(i % 10), RelationID(i % 3), EntityID((i + 1) % 10)}
	}
	g := MustNewGraph("g", 10, 3, triples)
	rng := rand.New(rand.NewSource(7))
	sp, err := SplitTriples(g, rng, 0.05, 0.05)
	if err != nil {
		t.Fatalf("SplitTriples: %v", err)
	}
	if sp.Train.NumTriples() != 90 || sp.Valid.NumTriples() != 5 || sp.Test.NumTriples() != 5 {
		t.Errorf("split sizes = %d/%d/%d, want 90/5/5",
			sp.Train.NumTriples(), sp.Valid.NumTriples(), sp.Test.NumTriples())
	}
	if sp.AllTriples().Len() == 0 {
		t.Error("AllTriples empty")
	}
	// Splits must be disjoint and cover everything.
	seen := map[Triple]int{}
	for _, part := range [][]Triple{sp.Train.Triples, sp.Valid.Triples, sp.Test.Triples} {
		for _, tr := range part {
			seen[tr]++
		}
	}
	total := 0
	for _, c := range seen {
		total += c
	}
	if total != 100 {
		t.Errorf("split covers %d triples, want 100", total)
	}
}

func TestSplitTriplesRejectsBadFractions(t *testing.T) {
	g := tinyGraph(t)
	rng := rand.New(rand.NewSource(1))
	for _, tc := range [][2]float64{{-0.1, 0.1}, {0.5, 0.5}, {0.1, -0.1}} {
		if _, err := SplitTriples(g, rng, tc[0], tc[1]); err == nil {
			t.Errorf("fractions %v accepted", tc)
		}
	}
}

func TestComputeStats(t *testing.T) {
	// A hub graph: entity 0 connects to everyone.
	var triples []Triple
	for i := 1; i < 100; i++ {
		triples = append(triples, Triple{0, RelationID(i % 2), EntityID(i)})
	}
	g := MustNewGraph("hub", 100, 2, triples)
	s := g.ComputeStats()
	if s.MaxEntityDegree != 99 {
		t.Errorf("MaxEntityDegree = %d, want 99", s.MaxEntityDegree)
	}
	// Top 1% = 1 entity (the hub), which sits in half of all entity slots.
	if s.Top1PctEntityShare < 0.45 || s.Top1PctEntityShare > 0.55 {
		t.Errorf("Top1PctEntityShare = %v, want ≈0.5", s.Top1PctEntityShare)
	}
	if s.NumTriples != 99 {
		t.Errorf("NumTriples = %d, want 99", s.NumTriples)
	}
}

func TestReadTSV(t *testing.T) {
	in := "alice\tknows\tbob\nbob\tknows\tcarol\n\n# comment\ncarol\tlikes\talice\n"
	g, v, err := ReadTSV(strings.NewReader(in), "toy")
	if err != nil {
		t.Fatalf("ReadTSV: %v", err)
	}
	if g.NumTriples() != 3 || g.NumEntity != 3 || g.NumRel != 2 {
		t.Fatalf("parsed %d triples, %d entities, %d relations; want 3/3/2",
			g.NumTriples(), g.NumEntity, g.NumRel)
	}
	if v.EntityLabel(0) != "alice" || v.RelationID("likes") != 1 {
		t.Errorf("vocab wrong: entity 0 = %q, likes = %d", v.EntityLabel(0), v.RelationID("likes"))
	}
	if v.EntityLabel(99) != "" {
		t.Error("out-of-range entity label not empty")
	}
}

func TestReadTSVErrors(t *testing.T) {
	if _, _, err := ReadTSV(strings.NewReader("a\tb\n"), "bad"); err == nil {
		t.Error("2-field line accepted")
	}
	if _, _, err := ReadTSV(strings.NewReader(""), "empty"); err == nil {
		t.Error("empty input accepted")
	}
}

func TestTSVRoundTrip(t *testing.T) {
	g := tinyGraph(t)
	var buf bytes.Buffer
	if err := WriteTSV(&buf, g); err != nil {
		t.Fatalf("WriteTSV: %v", err)
	}
	g2, _, err := ReadTSV(&buf, "roundtrip")
	if err != nil {
		t.Fatalf("ReadTSV: %v", err)
	}
	if g2.NumTriples() != g.NumTriples() {
		t.Fatalf("round trip lost triples: %d vs %d", g2.NumTriples(), g.NumTriples())
	}
}

// Property: total degree equals head slots plus non-self-loop tail slots.
func TestDegreeSumProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 3 {
			return true
		}
		var triples []Triple
		for i := 0; i+2 < len(raw); i += 3 {
			triples = append(triples, Triple{
				Head:     EntityID(raw[i] % 16),
				Relation: RelationID(raw[i+1] % 4),
				Tail:     EntityID(raw[i+2] % 16),
			})
		}
		g := MustNewGraph("prop", 16, 4, triples)
		want := 0
		for _, tr := range triples {
			want++
			if tr.Head != tr.Tail {
				want++
			}
		}
		got := 0
		for _, d := range g.EntityDegrees() {
			got += d
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
