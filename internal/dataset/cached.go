package dataset

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"hetkg/internal/artifact"
	"hetkg/internal/kg"
)

// genVersion versions the synthetic generator's output and its artifact
// body in cache keys: bump it whenever Generate's algorithm or the
// EncodeGraph layout changes so stale artifacts can never be mistaken for
// current ones. Version 1 held gob bodies.
const genVersion = "dataset/v2"

// cacheKey addresses one preset generation.
func cacheKey(name string, scale Scale, seed int64) artifact.Key {
	return artifact.KeyOf(genVersion, name, scale.String(), strconv.FormatInt(seed, 10))
}

// EncodeGraph lays g out as a dataset artifact body of little-endian u32s:
// name length, name, NumEntity, NumRel, then each triple's head, relation
// and tail. Adjacency and degree tables are not kept; they rebuild lazily
// on the decoded graph exactly as they do on a fresh one.
func EncodeGraph(g *kg.Graph) []byte {
	b := make([]byte, 0, 12+len(g.Name)+12*len(g.Triples))
	b = le.AppendUint32(b, uint32(len(g.Name)))
	b = append(b, g.Name...)
	b = le.AppendUint32(b, uint32(g.NumEntity))
	b = le.AppendUint32(b, uint32(g.NumRel))
	for _, t := range g.Triples {
		b = le.AppendUint32(b, uint32(t.Head))
		b = le.AppendUint32(b, uint32(t.Relation))
		b = le.AppendUint32(b, uint32(t.Tail))
	}
	return b
}

// DecodeGraph parses an EncodeGraph body and re-validates it through
// kg.NewGraph: the artifact's CRC guards bytes, this guards semantics (id
// ranges) against a foreign-but-well-formed entry.
func DecodeGraph(b []byte) (*kg.Graph, error) {
	if len(b) < 12 || uint64(le.Uint32(b)) > uint64(len(b)-12) {
		return nil, fmt.Errorf("dataset: graph body of %d bytes is too short", len(b))
	}
	n := 4 + int(le.Uint32(b))
	name, rest := string(b[4:n]), b[n+8:]
	if len(rest)%12 != 0 {
		return nil, fmt.Errorf("dataset: graph body ends %d bytes into a triple", len(rest)%12)
	}
	triples := make([]kg.Triple, len(rest)/12)
	for i := range triples {
		t := rest[12*i:]
		triples[i] = kg.Triple{Head: kg.EntityID(le.Uint32(t)), Relation: kg.RelationID(le.Uint32(t[4:])), Tail: kg.EntityID(le.Uint32(t[8:]))}
	}
	return kg.NewGraph(name, int(le.Uint32(b[n:])), int(le.Uint32(b[n+4:])), triples)
}

var le = binary.LittleEndian // the byte order of artifact bodies

// ByNameCached is ByName through an artifact store: a warm cache skips
// generation entirely (the dominant startup cost of large-scale runs —
// every hetkg ps shard and every trainer regenerates the same graph). A nil
// store degrades to plain ByName. Damaged cache entries are regenerated and
// overwritten, never trusted.
func ByNameCached(name string, scale Scale, seed int64, st *artifact.Store) (*kg.Graph, bool) {
	if st == nil {
		return ByName(name, scale, seed)
	}
	key := cacheKey(name, scale, seed)
	if body, ok, _ := st.Get("dataset", key); ok {
		if g, err := DecodeGraph(body); err == nil {
			return g, true
		}
	}
	g, ok := ByName(name, scale, seed)
	if !ok {
		return nil, false
	}
	// Best effort: a failed write just means the next run regenerates too.
	_ = st.Put("dataset", key, EncodeGraph(g))
	return g, true
}
