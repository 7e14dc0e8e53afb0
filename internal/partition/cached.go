package partition

import (
	"encoding/binary"
	"fmt"

	"hetkg/internal/artifact"
	"hetkg/internal/kg"
)

// partVersion versions cached partitionings: bump whenever any partitioner
// algorithm or the EncodeResult layout changes, so stale artifacts can
// never alias current output. Version 1 held gob bodies.
const partVersion = "partition/v2"

// cached wraps a Partitioner with an artifact store: identical (graph,
// partitioner, k) inputs are served from disk instead of re-partitioned.
// Partitioning is the second dominant startup cost after dataset generation
// — the METIS-like scheme does multilevel coarsening plus KL refinement —
// and every process of a multi-process run repeats it identically.
type cached struct {
	inner Partitioner
	store *artifact.Store
}

// Cached wraps p so Partition consults (and fills) st. A nil store returns
// p unchanged. The cache key fingerprints the partitioner's configured
// state (%#v covers name, seed, and tuning fields), the requested k, and
// the graph content, so any semantic change misses rather than aliasing.
func Cached(p Partitioner, st *artifact.Store) Partitioner {
	if st == nil {
		return p
	}
	return &cached{inner: p, store: st}
}

// Name identifies the wrapped algorithm (the cache is invisible in reports).
func (c *cached) Name() string { return c.inner.Name() }

// Partition serves from the store when possible, else delegates and caches.
func (c *cached) Partition(g *kg.Graph, k int) (*Result, error) {
	key := cacheKey(c.inner, g, k)
	if body, ok, _ := c.store.Get("partition", key); ok {
		if r, err := DecodeResult(g, body); err == nil && r.K == k {
			return r, nil
		}
	}
	fresh, err := c.inner.Partition(g, k)
	if err != nil {
		return nil, err
	}
	_ = c.store.Put("partition", key, EncodeResult(fresh))
	return fresh, nil
}

// EncodeResult lays r out as a partition artifact body of little-endian
// u32s: K, then EntityPart. DecodeResult re-derives TripleIdx.
func EncodeResult(r *Result) []byte {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+4*len(r.EntityPart)), uint32(r.K))
	for _, p := range r.EntityPart {
		b = binary.LittleEndian.AppendUint32(b, uint32(p))
	}
	return b
}

// DecodeResult parses an EncodeResult body for g: a K in [1, g.NumEntity]
// and one partition in [0,K) per entity of g. TripleIdx is re-derived from g
// by head ownership, as the partitioners derive it, so a decoded Result
// cannot index past g's triples.
func DecodeResult(g *kg.Graph, b []byte) (*Result, error) {
	if len(b) != 4+4*g.NumEntity {
		return nil, fmt.Errorf("partition: body of %d bytes for %d entities", len(b), g.NumEntity)
	}
	k := binary.LittleEndian.Uint32(b)
	r := &Result{K: int(k), EntityPart: make([]int32, g.NumEntity)}
	for e := range r.EntityPart {
		p := binary.LittleEndian.Uint32(b[4+4*e:])
		if p >= k {
			return nil, fmt.Errorf("partition: entity %d in partition %d of %d", e, p, k)
		}
		r.EntityPart[e] = int32(p)
	}
	if err := validate(g, r.K); err != nil {
		return nil, err
	}
	assignTriples(g, r)
	return r, nil
}

// cacheKey fingerprints the partitioning inputs. The graph fingerprint
// hashes the full triple stream (12 bytes per triple), not just the counts:
// two different graphs with identical statistics must not share an entry.
func cacheKey(p Partitioner, g *kg.Graph, k int) artifact.Key {
	h := artifact.NewHasher()
	var buf [12]byte
	for _, t := range g.Triples {
		binary.BigEndian.PutUint32(buf[0:4], uint32(t.Head))
		binary.BigEndian.PutUint32(buf[4:8], uint32(t.Relation))
		binary.BigEndian.PutUint32(buf[8:12], uint32(t.Tail))
		h.Write(buf[:])
	}
	return artifact.KeyOf(partVersion,
		fmt.Sprintf("%#v", p), // partitioner type + seed + tuning fields
		fmt.Sprintf("k=%d", k),
		g.Name,
		fmt.Sprintf("%d/%d/%d", g.NumEntity, g.NumRel, len(g.Triples)),
		string(h.Key()))
}
