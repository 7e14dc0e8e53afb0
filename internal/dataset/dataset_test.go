package dataset

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hetkg/internal/kg"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "g", NumEntity: 10, NumRel: 2, NumTriples: 20, EntityZipf: 1, RelationZipf: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{NumEntity: 1, NumRel: 1, NumTriples: 1, EntityZipf: 1, RelationZipf: 1},
		{NumEntity: 10, NumRel: 0, NumTriples: 1, EntityZipf: 1, RelationZipf: 1},
		{NumEntity: 10, NumRel: 1, NumTriples: 0, EntityZipf: 1, RelationZipf: 1},
		{NumEntity: 10, NumRel: 1, NumTriples: 1, EntityZipf: 0, RelationZipf: 1},
		{NumEntity: 10, NumRel: 1, NumTriples: 1, EntityZipf: 1, RelationZipf: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := Config{Name: "t", NumEntity: 200, NumRel: 10, NumTriples: 2000,
		EntityZipf: 0.8, RelationZipf: 1.0, Seed: 1}
	g, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if g.NumTriples() != 2000 || g.NumEntity != 200 || g.NumRel != 10 {
		t.Fatalf("shape %d/%d/%d, want 2000/200/10", g.NumTriples(), g.NumEntity, g.NumRel)
	}
}

func TestGenerateNoDuplicatesNoSelfLoops(t *testing.T) {
	g, err := Generate(Config{Name: "t", NumEntity: 100, NumRel: 5, NumTriples: 1500,
		EntityZipf: 0.9, RelationZipf: 1.0, Seed: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	seen := map[kg.Triple]bool{}
	for _, tr := range g.Triples {
		if tr.Head == tr.Tail {
			t.Fatalf("self-loop generated: %v", tr)
		}
		if seen[tr] {
			t.Fatalf("duplicate triple generated: %v", tr)
		}
		seen[tr] = true
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Name: "t", NumEntity: 100, NumRel: 5, NumTriples: 500,
		EntityZipf: 0.8, RelationZipf: 1.0, Seed: 42}
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	if len(a.Triples) != len(b.Triples) {
		t.Fatal("non-deterministic triple count")
	}
	for i := range a.Triples {
		if a.Triples[i] != b.Triples[i] {
			t.Fatalf("triple %d differs between runs with same seed", i)
		}
	}
	c, _ := Generate(Config{Name: "t", NumEntity: 100, NumRel: 5, NumTriples: 500,
		EntityZipf: 0.8, RelationZipf: 1.0, Seed: 43})
	same := 0
	for i := range a.Triples {
		if a.Triples[i] == c.Triples[i] {
			same++
		}
	}
	if same == len(a.Triples) {
		t.Error("different seeds produced identical graphs")
	}
}

func TestEveryEntityAndRelationAppears(t *testing.T) {
	g, err := Generate(Config{Name: "t", NumEntity: 150, NumRel: 12, NumTriples: 600,
		EntityZipf: 1.1, RelationZipf: 1.3, Seed: 3})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for e, d := range g.EntityDegrees() {
		if d == 0 {
			t.Errorf("entity %d never appears", e)
		}
	}
	for r, c := range g.RelationCounts() {
		if c == 0 {
			t.Errorf("relation %d never appears", r)
		}
	}
}

func TestGenerateRejectsTooDense(t *testing.T) {
	_, err := Generate(Config{Name: "t", NumEntity: 3, NumRel: 1, NumTriples: 100,
		EntityZipf: 1, RelationZipf: 1, Seed: 1})
	if err == nil {
		t.Error("over-dense request accepted")
	}
}

// The point of the generator: skewed access. The top 1% of entities must
// hold several times their uniform share of degree mass, and relations must
// be more concentrated than entities (paper Fig. 2 and §IV-B.1).
func TestGeneratedSkewMatchesPaperShape(t *testing.T) {
	g := FB15kLike(Small, 7)
	s := g.ComputeStats()
	if s.Top1PctEntityShare < 0.025 {
		t.Errorf("entity skew too weak: top 1%% share = %.3f, want > 0.025", s.Top1PctEntityShare)
	}
	if s.Top1PctRelationShare < s.Top1PctEntityShare {
		t.Errorf("relations (%.3f) should be more concentrated than entities (%.3f)",
			s.Top1PctRelationShare, s.Top1PctEntityShare)
	}
	if s.Top1PctRelationShare < 0.10 {
		t.Errorf("relation concentration too weak: %.3f, want > 0.10", s.Top1PctRelationShare)
	}
}

func TestPresetsProduceDeclaredShapes(t *testing.T) {
	tests := []struct {
		name            string
		g               *kg.Graph
		ne, nr, triples int
	}{
		{"fb15k-tiny", FB15kLike(Tiny, 1), 500, 45, 4000},
		{"wn18-tiny", WN18Like(Tiny, 1), 1400, 18, 3000},
		{"fb86m-tiny", Freebase86mLike(Tiny, 1), 2000, 150, 8000},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.NumEntity != tc.ne || tc.g.NumRel != tc.nr || tc.g.NumTriples() != tc.triples {
				t.Errorf("got %d/%d/%d, want %d/%d/%d",
					tc.g.NumEntity, tc.g.NumRel, tc.g.NumTriples(), tc.ne, tc.nr, tc.triples)
			}
		})
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		if _, ok := ByName(name, Tiny, 1); !ok {
			t.Errorf("ByName(%q) not found", name)
		}
	}
	if _, ok := ByName("nope", Tiny, 1); ok {
		t.Error("ByName accepted unknown dataset")
	}
}

func TestParseScale(t *testing.T) {
	for name, want := range map[string]Scale{"tiny": Tiny, "small": Small, "paper": Paper} {
		if got, err := ParseScale(name); err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// A typo is refused, never read as the default.
	if _, err := ParseScale("tyni"); err == nil || !strings.Contains(err.Error(), "tiny | small | paper") {
		t.Errorf("ParseScale(tyni) error = %v, want one naming tiny | small | paper", err)
	}
	if Tiny.String() != "tiny" || Small.String() != "small" || Paper.String() != "paper" {
		t.Error("Scale.String mapping wrong")
	}
	if Scale(99).String() != "unknown" {
		t.Error("unknown Scale should stringify to unknown")
	}
}

func TestZipfSamplerRankOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	z := newZipfSampler(rng, 50, 1.0)
	counts := make([]int, 50)
	for i := 0; i < 20000; i++ {
		counts[z.Sample()]++
	}
	if counts[0] <= counts[25] || counts[0] <= counts[49] {
		t.Errorf("rank 0 (%d) should dominate rank 25 (%d) and 49 (%d)",
			counts[0], counts[25], counts[49])
	}
}

// Property: samples are always within range regardless of exponent.
func TestZipfSamplerInRange(t *testing.T) {
	f := func(seed int64, sRaw uint8) bool {
		s := 0.1 + float64(sRaw%30)/10 // 0.1 .. 3.0
		rng := rand.New(rand.NewSource(seed))
		z := newZipfSampler(rng, 17, s)
		for i := 0; i < 100; i++ {
			v := z.Sample()
			if v < 0 || v >= 17 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPaperScaleGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full published FB15k shape (~0.6M triples)")
	}
	g := FB15kLike(Paper, 1)
	if g.NumEntity != 14951 || g.NumRel != 1345 || g.NumTriples() != 592213 {
		t.Fatalf("paper-scale FB15k shape %d/%d/%d", g.NumEntity, g.NumRel, g.NumTriples())
	}
	s := g.ComputeStats()
	// The calibration targets: top 1% of relations well above uniform,
	// entity skew present but milder (paper Fig. 2 / §IV-B.1).
	if s.Top1PctRelationShare < 0.15 {
		t.Errorf("paper-scale relation concentration %.3f too weak", s.Top1PctRelationShare)
	}
	if s.Top1PctEntityShare < 0.03 {
		t.Errorf("paper-scale entity skew %.3f too weak", s.Top1PctEntityShare)
	}
}
