package dataset

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"hetkg/internal/artifact"
	"hetkg/internal/frame"
	"hetkg/internal/kg"
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

// TestByNameCachedSkipsOlderEntries fills a store the way a build that
// cached gob bodies did (key version dataset/v1, container magic v1) and
// checks that it is a clean miss: regenerated, not read, not counted as
// corrupt.
func TestByNameCachedSkipsOlderEntries(t *testing.T) {
	dir := t.TempDir()
	st, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := ByName("fb15k", Tiny, 42)
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(struct {
		Name              string
		NumEntity, NumRel int
		Triples           []kg.Triple
	}{g.Name, g.NumEntity, g.NumRel, g.Triples}); err != nil {
		t.Fatal(err)
	}
	old := artifact.KeyOf("dataset/v1", "fb15k", Tiny.String(), strconv.Itoa(42))
	if err := frame.WriteFile(filepath.Join(dir, "dataset-"+string(old)+".art"), "HETKG-ART-v1\n", body.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, ok := ByNameCached("fb15k", Tiny, 42, st)
	if !ok || !reflect.DeepEqual(got.Triples, g.Triples) {
		t.Fatal("regeneration failed")
	}
	if st.Hits() != 0 || st.Misses() != 1 || st.Corrupt() != 0 {
		t.Fatalf("hits=%d misses=%d corrupt=%d, want 0/1/0", st.Hits(), st.Misses(), st.Corrupt())
	}
}

// TestDecodeGraphRefusesBadBodies cuts and corrupts a good body: each must
// be refused with an error, never decoded into a graph.
func TestDecodeGraphRefusesBadBodies(t *testing.T) {
	g := kg.MustNewGraph("g", 3, 2, []kg.Triple{{Head: 0, Relation: 1, Tail: 2}, {Head: 2, Relation: 0, Tail: 1}})
	good := EncodeGraph(g)
	if d, err := DecodeGraph(good); err != nil || d.Name != g.Name || d.NumEntity != 3 || d.NumRel != 2 || !reflect.DeepEqual(d.Triples, g.Triples) {
		t.Fatalf("round trip: %+v, %v", d, err)
	}
	bad := map[string][]byte{
		"empty":             nil,
		"name past the end": append([]byte{0xff, 0xff, 0xff, 0x7f}, good[4:]...),
		"half a triple":     good[:len(good)-6],
		"tail out of range": append(append([]byte(nil), good[:len(good)-4]...), 3, 0, 0, 0),
		"no relations":      append(append(append([]byte(nil), good[:9]...), 0, 0, 0, 0), good[13:]...),
	}
	for name, b := range bad {
		if d, err := DecodeGraph(b); err == nil {
			t.Errorf("%s: decoded %+v", name, d)
		}
	}
}
