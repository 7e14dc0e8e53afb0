package dataset

import (
	"strconv"

	"hetkg/internal/artifact"
	"hetkg/internal/kg"
)

// genVersion versions the synthetic generator's output in cache keys: bump
// it whenever Generate's algorithm changes so stale artifacts can never be
// mistaken for current ones.
const genVersion = "dataset/v1"

// graphArtifact is the gob image of a generated graph. Only the semantic
// fields are persisted; adjacency and degree tables rebuild lazily on the
// decoded graph exactly as they do on a fresh one.
type graphArtifact struct {
	Name      string
	NumEntity int
	NumRel    int
	Triples   []kg.Triple
}

// cacheKey addresses one preset generation.
func cacheKey(name string, scale Scale, seed int64) artifact.Key {
	return artifact.KeyOf(genVersion, name, scale.String(), strconv.FormatInt(seed, 10))
}

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
	var art graphArtifact
	if ok, _ := st.Get("dataset", key, &art); ok {
		// Re-validate through NewGraph: the CRC guards bytes, this guards
		// semantics (id ranges) against a foreign-but-well-formed entry.
		if g, err := kg.NewGraph(art.Name, art.NumEntity, art.NumRel, art.Triples); err == nil {
			return g, true
		}
	}
	g, ok := ByName(name, scale, seed)
	if !ok {
		return nil, false
	}
	// Best effort: a failed write just means the next run regenerates too.
	_ = st.Put("dataset", key, &graphArtifact{
		Name:      g.Name,
		NumEntity: g.NumEntity,
		NumRel:    g.NumRel,
		Triples:   g.Triples,
	})
	return g, true
}
