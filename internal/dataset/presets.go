package dataset

import (
	"fmt"

	"hetkg/internal/kg"
)

// Scale selects how large a preset dataset to generate. The paper ran on a
// 4-machine, 128-core cluster; this repository defaults to sizes that a
// single CPU can train in seconds (Tiny) or minutes (Small). Paper scale
// generates the published entity/relation counts (except Freebase-86m,
// which stays capped — see Freebase86mLike).
type Scale int

const (
	// Small is the default experiment scale (a few seconds per epoch). It is
	// the zero Scale, so a run that leaves its scale unset trains the size
	// `hetkg train` does with no flags.
	Small Scale = iota
	// Tiny is for unit tests and quick demos (sub-second epochs).
	Tiny
	// Paper matches the published FB15k/WN18 statistics.
	Paper
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Paper:
		return "paper"
	default:
		return "unknown"
	}
}

// ParseScale converts a flag or plan string to a Scale. An unknown name is an
// error: a typo must not quietly train at another size than it names.
func ParseScale(s string) (Scale, error) {
	for _, sc := range []Scale{Tiny, Small, Paper} {
		if s == sc.String() {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("dataset: unknown scale %q (have tiny | small | paper)", s)
}

// MarshalText spells the scale as its flag and plan value ("small").
func (s Scale) MarshalText() ([]byte, error) {
	if s < Small || s > Paper {
		return nil, fmt.Errorf("dataset: unknown scale %d", int(s))
	}
	return []byte(s.String()), nil
}

// UnmarshalText parses a flag or plan value, as ParseScale does.
func (s *Scale) UnmarshalText(text []byte) (err error) {
	*s, err = ParseScale(string(text))
	return err
}

// FB15kLike mirrors FB15k: 14,951 entities, 1,345 relations, 592,213 triples,
// moderately skewed entity degrees and strongly concentrated relation usage
// (top 1% of relations ≈ 36% of triples).
func FB15kLike(scale Scale, seed int64) *kg.Graph {
	cfg := Config{Name: "fb15k-like", EntityZipf: 0.78, RelationZipf: 1.05, Seed: seed}
	switch scale {
	case Tiny:
		cfg.NumEntity, cfg.NumRel, cfg.NumTriples = 500, 45, 4000
	case Small:
		cfg.NumEntity, cfg.NumRel, cfg.NumTriples = 3000, 270, 40000
	case Paper:
		cfg.NumEntity, cfg.NumRel, cfg.NumTriples = 14951, 1345, 592213
	}
	return MustGenerate(cfg)
}

// WN18Like mirrors WN18: 40,943 entities, only 18 relations, 151,442 triples.
// The tiny relation universe is what makes HET-KG's relation caching so
// effective on this dataset (§VI-B.2).
func WN18Like(scale Scale, seed int64) *kg.Graph {
	cfg := Config{Name: "wn18-like", EntityZipf: 0.55, RelationZipf: 0.9, Seed: seed}
	switch scale {
	case Tiny:
		cfg.NumEntity, cfg.NumRel, cfg.NumTriples = 1400, 18, 3000
	case Small:
		cfg.NumEntity, cfg.NumRel, cfg.NumTriples = 8000, 18, 30000
	case Paper:
		cfg.NumEntity, cfg.NumRel, cfg.NumTriples = 40943, 18, 151442
	}
	return MustGenerate(cfg)
}

// Freebase86mLike mirrors the shape of Freebase-86m (86M entities, 14,824
// relations, 338M triples) at a tractable size. Even Paper scale stays
// capped at ~200k entities / 1M triples: the mechanism under study (hotness
// skew and communication volume) is preserved by the heavier Zipf exponent,
// while 86M × d float32 rows would not fit this environment. The
// substitution is recorded in DESIGN.md.
func Freebase86mLike(scale Scale, seed int64) *kg.Graph {
	cfg := Config{Name: "freebase86m-like", EntityZipf: 1.02, RelationZipf: 1.15, Seed: seed}
	switch scale {
	case Tiny:
		cfg.NumEntity, cfg.NumRel, cfg.NumTriples = 2000, 150, 8000
	case Small:
		cfg.NumEntity, cfg.NumRel, cfg.NumTriples = 20000, 1500, 100000
	case Paper:
		cfg.NumEntity, cfg.NumRel, cfg.NumTriples = 200000, 14824, 1000000
	}
	return MustGenerate(cfg)
}

// ByName returns the preset generator for a dataset flag value
// ("fb15k", "wn18", "freebase86m"); ok is false for unknown names.
func ByName(name string, scale Scale, seed int64) (*kg.Graph, bool) {
	switch name {
	case "fb15k", "fb15k-like":
		return FB15kLike(scale, seed), true
	case "wn18", "wn18-like":
		return WN18Like(scale, seed), true
	case "freebase86m", "freebase86m-like", "fb86m":
		return Freebase86mLike(scale, seed), true
	default:
		return nil, false
	}
}

// Names lists the dataset preset names accepted by ByName.
func Names() []string { return []string{"fb15k", "wn18", "freebase86m"} }
