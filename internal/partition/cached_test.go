package partition

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"hetkg/internal/artifact"
	"hetkg/internal/dataset"
)

func TestCachedMatchesFresh(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.FB15kLike(dataset.Tiny, 42)
	for _, name := range []string{"metis", "random", "ldg"} {
		t.Run(name, func(t *testing.T) {
			fresh, err := New(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Partition(g, 4)
			if err != nil {
				t.Fatal(err)
			}
			wrapped := Cached(must(New(name, 42)), st)
			if wrapped.Name() != name && name != "metis" && name != "ldg" {
				t.Fatalf("Cached changed the reported name to %q", wrapped.Name())
			}
			cold, err := wrapped.Partition(g, 4)
			if err != nil {
				t.Fatal(err)
			}
			hitsBefore := st.Hits()
			warm, err := wrapped.Partition(g, 4)
			if err != nil {
				t.Fatal(err)
			}
			if st.Hits() != hitsBefore+1 {
				t.Fatalf("warm Partition did not hit the cache (hits %d -> %d)",
					hitsBefore, st.Hits())
			}
			if !reflect.DeepEqual(cold, want) {
				t.Fatal("cold cached partition differs from fresh")
			}
			if !reflect.DeepEqual(warm, cold) {
				t.Fatal("warm cached partition differs from cold")
			}
		})
	}
}

// TestCachedEntryCannotIndexPastTheGraph plants entries that pass the
// store's checksum under the key Partition reads but do not fit the graph:
// a Result whose TripleIdx names a triple past the graph's last (an entry
// that once decoded and then panicked in Subgraphs), an entity placed
// outside [0,K), and another k's partitioning. Each must be refused and the
// fresh partitioning returned and cached.
func TestCachedEntryCannotIndexPastTheGraph(t *testing.T) {
	g := dataset.FB15kLike(dataset.Tiny, 42)
	inner := must(New("metis", 42))
	want, err := inner.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	pastEnd := *want
	pastEnd.TripleIdx = append([][]int32{append([]int32{int32(len(g.Triples) + 5)}, want.TripleIdx[0]...)}, want.TripleIdx[1:]...)
	var gobBody bytes.Buffer
	if err := gob.NewEncoder(&gobBody).Encode(&pastEnd); err != nil {
		t.Fatal(err)
	}
	outside := EncodeResult(want)
	outside[4] = 4
	two, err := inner.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"TripleIdx past the graph": gobBody.Bytes(),
		"entity outside [0,K)":     outside,
		"k=2 under the k=4 key":    EncodeResult(two),
	} {
		t.Run(name, func(t *testing.T) {
			st, err := artifact.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put("partition", cacheKey(inner, g, 4), body); err != nil {
				t.Fatal(err)
			}
			got, err := Cached(inner, st).Partition(g, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("a planted entry changed the partitioning")
			}
			got.Subgraphs(g)
			if again, err := Cached(inner, st).Partition(g, 4); err != nil || !reflect.DeepEqual(again, want) || st.Writes() != 2 {
				t.Fatalf("the fresh partitioning was not cached over the planted entry (writes %d, %v)", st.Writes(), err)
			}
		})
	}
}

func TestCachedKeySeparation(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.FB15kLike(dataset.Tiny, 42)
	p := Cached(must(New("metis", 42)), st)
	if _, err := p.Partition(g, 4); err != nil {
		t.Fatal(err)
	}

	// Different k must miss.
	if _, err := p.Partition(g, 2); err != nil {
		t.Fatal(err)
	}
	if st.Hits() != 0 {
		t.Fatal("k=2 aliased the k=4 entry")
	}
	// Different partitioner seed must miss.
	p43 := Cached(must(New("metis", 43)), st)
	if _, err := p43.Partition(g, 4); err != nil {
		t.Fatal(err)
	}
	if st.Hits() != 0 {
		t.Fatal("seed 43 aliased the seed 42 entry")
	}
	// Different graph content (same sizes, different seed) must miss.
	g2 := dataset.FB15kLike(dataset.Tiny, 99)
	if _, err := p.Partition(g2, 4); err != nil {
		t.Fatal(err)
	}
	if st.Hits() != 0 {
		t.Fatal("a different graph aliased an existing entry")
	}
}

func TestCachedNilStore(t *testing.T) {
	inner := must(New("metis", 42))
	if got := Cached(inner, nil); got != inner {
		t.Fatal("Cached(nil store) must return the partitioner unchanged")
	}
}

func must(p Partitioner, err error) Partitioner {
	if err != nil {
		panic(err)
	}
	return p
}
