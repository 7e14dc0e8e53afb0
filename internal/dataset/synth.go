// Package dataset generates deterministic synthetic knowledge graphs whose
// structural statistics match the three benchmarks the HET-KG paper
// evaluates on: FB15k, WN18, and Freebase-86m.
//
// HET-KG's mechanisms (hot-embedding caching, prefetch/filter selection,
// node-heterogeneity quotas) depend only on the *access-frequency
// distribution* of entities and relations under uniform triple sampling —
// i.e. on the degree distribution of entities and the usage concentration of
// relations — not on the semantic content of the graph. The generators here
// therefore reproduce:
//
//   - power-law (Zipf-like) entity degree skew, so a small fraction of
//     entities dominates embedding accesses (paper Fig. 2);
//   - heavy concentration of relation usage (top 1% of FB15k relations carry
//     ≈36% of triples, §IV-B.1);
//   - the published entity/relation/triple counts (scaled down for
//     Freebase-86m, whose real dump is 275 GB).
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"hetkg/internal/kg"
)

// Config parameterizes the synthetic generator.
type Config struct {
	Name       string
	NumEntity  int
	NumRel     int
	NumTriples int
	// EntityZipf is the exponent of the power-law entity popularity
	// distribution (larger = more skew). FB15k-style graphs sit near 0.9;
	// Freebase-style graphs near 1.05.
	EntityZipf float64
	// RelationZipf is the exponent for relation popularity. Relation usage
	// is far more concentrated than entity usage in real KGs.
	RelationZipf float64
	// Seed makes generation deterministic.
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.NumEntity < 2:
		return fmt.Errorf("dataset %q: need at least 2 entities, have %d", c.Name, c.NumEntity)
	case c.NumRel < 1:
		return fmt.Errorf("dataset %q: need at least 1 relation, have %d", c.Name, c.NumRel)
	case c.NumTriples < 1:
		return fmt.Errorf("dataset %q: need at least 1 triple, have %d", c.Name, c.NumTriples)
	case c.EntityZipf <= 0 || c.RelationZipf <= 0:
		return fmt.Errorf("dataset %q: Zipf exponents must be positive (entity=%v relation=%v)", c.Name, c.EntityZipf, c.RelationZipf)
	}
	return nil
}

// Generate builds the synthetic graph. Entity ids are assigned so that
// popularity decreases with id (entity 0 is the hottest), which makes skew
// plots and cache-content assertions easy to read; samplers never depend on
// id order. Duplicate triples are suppressed (real benchmark files contain
// no duplicates); self-loops are rejected, matching the benchmarks.
func Generate(cfg Config) (*kg.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	entDist := newZipfSampler(rng, cfg.NumEntity, cfg.EntityZipf)
	relDist := newZipfSampler(rng, cfg.NumRel, cfg.RelationZipf)

	maxPossible := cfg.NumEntity * (cfg.NumEntity - 1) * cfg.NumRel
	if cfg.NumTriples > maxPossible/2 {
		return nil, fmt.Errorf("dataset %q: %d triples too dense for %d entities × %d relations",
			cfg.Name, cfg.NumTriples, cfg.NumEntity, cfg.NumRel)
	}

	// The duplicate check keys a triple by one integer, (h·R + r)·E + t,
	// below E·E·R, which fits in a uint64 since E·(E−1)·R (maxPossible)
	// fits in an int.
	seen := make(map[uint64]struct{}, cfg.NumTriples)
	key := func(t kg.Triple) uint64 {
		return (uint64(t.Head)*uint64(cfg.NumRel)+uint64(t.Relation))*uint64(cfg.NumEntity) + uint64(t.Tail)
	}
	triples := make([]kg.Triple, 0, cfg.NumTriples)
	// To guarantee every entity and relation appears at least once (so
	// every embedding row is trained and evaluation is well defined), seed
	// one triple per entity and per relation before the skewed bulk.
	for e := 0; e < cfg.NumEntity && len(triples) < cfg.NumTriples; e++ {
		t := kg.Triple{
			Head:     kg.EntityID(e),
			Relation: kg.RelationID(relDist.Sample()),
			Tail:     kg.EntityID((e + 1 + rng.Intn(cfg.NumEntity-1)) % cfg.NumEntity),
		}
		if t.Head == t.Tail {
			t.Tail = kg.EntityID((int(t.Tail) + 1) % cfg.NumEntity)
		}
		if _, dup := seen[key(t)]; !dup {
			seen[key(t)] = struct{}{}
			triples = append(triples, t)
		}
	}
	for r := 0; r < cfg.NumRel && len(triples) < cfg.NumTriples; r++ {
		h := kg.EntityID(entDist.Sample())
		t := kg.EntityID(entDist.Sample())
		if h == t {
			t = kg.EntityID((int(t) + 1) % cfg.NumEntity)
		}
		tr := kg.Triple{Head: h, Relation: kg.RelationID(r), Tail: t}
		if _, dup := seen[key(tr)]; !dup {
			seen[key(tr)] = struct{}{}
			triples = append(triples, tr)
		}
	}
	for attempts := 0; len(triples) < cfg.NumTriples; attempts++ {
		if attempts > 50*cfg.NumTriples {
			return nil, fmt.Errorf("dataset %q: rejection sampling stalled at %d/%d triples",
				cfg.Name, len(triples), cfg.NumTriples)
		}
		h := kg.EntityID(entDist.Sample())
		t := kg.EntityID(entDist.Sample())
		if h == t {
			continue
		}
		tr := kg.Triple{Head: h, Relation: kg.RelationID(relDist.Sample()), Tail: t}
		if _, dup := seen[key(tr)]; dup {
			continue
		}
		seen[key(tr)] = struct{}{}
		triples = append(triples, tr)
	}
	return kg.NewGraph(cfg.Name, cfg.NumEntity, cfg.NumRel, triples)
}

// MustGenerate is Generate that panics on error, for presets whose configs
// are valid by construction.
func MustGenerate(cfg Config) *kg.Graph {
	g, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// zipfSampler draws ranks from a Zipf(s) distribution over [0, n) using
// inverse-CDF sampling on a precomputed cumulative table. rand.Zipf exists
// in the stdlib but requires s > 1; real KG degree exponents are often < 1,
// so we build our own table.
type zipfSampler struct {
	rng *rand.Rand
	cdf []float64
}

func newZipfSampler(rng *rand.Rand, n int, s float64) *zipfSampler {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfSampler{rng: rng, cdf: cdf}
}

// Sample returns a rank in [0, n), rank 0 being most likely.
func (z *zipfSampler) Sample() int {
	u := z.rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
