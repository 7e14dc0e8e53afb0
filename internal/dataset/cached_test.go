package dataset

import (
	"reflect"
	"testing"

	"hetkg/internal/artifact"
)

func TestByNameCachedRoundTrip(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, ok := ByNameCached("fb15k", Tiny, 42, st)
	if !ok {
		t.Fatal("cold generation failed")
	}
	if st.Hits() != 0 || st.Misses() != 1 || st.Writes() != 1 {
		t.Fatalf("cold counters hits=%d misses=%d writes=%d, want 0/1/1",
			st.Hits(), st.Misses(), st.Writes())
	}
	warm, ok := ByNameCached("fb15k", Tiny, 42, st)
	if !ok {
		t.Fatal("warm load failed")
	}
	if st.Hits() != 1 {
		t.Fatalf("warm load did not hit the cache (hits=%d)", st.Hits())
	}
	if warm.Name != cold.Name || warm.NumEntity != cold.NumEntity ||
		warm.NumRel != cold.NumRel || !reflect.DeepEqual(warm.Triples, cold.Triples) {
		t.Fatal("cached graph differs from generated graph")
	}
	// The decoded graph must be fully functional (lazy adjacency rebuilds).
	if warm.Degree(0) != cold.Degree(0) {
		t.Fatal("cached graph adjacency broken")
	}
}

func TestByNameCachedKeySeparation(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ByNameCached("fb15k", Tiny, 42, st); !ok {
		t.Fatal("generation failed")
	}
	// Different seed, scale, and name must all miss.
	for _, tc := range []struct {
		name  string
		scale Scale
		seed  int64
	}{
		{"fb15k", Tiny, 43},
		{"fb15k", Small, 42},
		{"wn18", Tiny, 42},
	} {
		before := st.Hits()
		if _, ok := ByNameCached(tc.name, tc.scale, tc.seed, st); !ok {
			t.Fatalf("generation failed for %+v", tc)
		}
		if st.Hits() != before {
			t.Fatalf("%+v aliased another entry", tc)
		}
	}
}

func TestByNameCachedNilStore(t *testing.T) {
	g, ok := ByNameCached("fb15k", Tiny, 42, nil)
	if !ok || g == nil {
		t.Fatal("nil store must degrade to plain generation")
	}
	if _, ok := ByNameCached("no-such-dataset", Tiny, 42, nil); ok {
		t.Fatal("unknown preset must stay unknown")
	}
}
