// Package eval implements the link-prediction protocol the paper evaluates
// with (§VI-A): for every test triple, rank the true head (and tail) among
// corrupted candidates by model score and report Hits@k, Mean Rank (MR) and
// Mean Reciprocal Rank (MRR).
//
// Both the full protocol (rank against every entity) and the
// sampled-candidate protocol (rank against n_e random negatives, which the
// paper uses on Freebase-86m where full ranking is infeasible) are
// supported, in raw and filtered variants.
//
// Rankings are independent across test triples, so they run on the parallel
// execution engine (internal/par): Config.Parallelism bounds the cores, and
// sampled-candidate mode stays deterministic at any degree because each
// (triple, side) ranking derives its own RNG from Config.Seed and its index
// instead of sharing one sequential stream.
package eval

import (
	"fmt"
	"math/rand"
	"slices"

	"hetkg/internal/kg"
	"hetkg/internal/model"
	"hetkg/internal/par"
	"hetkg/internal/vec"
)

// Config parameterizes an evaluation run.
type Config struct {
	// Model scores candidate triples.
	Model model.Model
	// Entities and Relations are the trained embedding tables.
	Entities  *vec.Matrix
	Relations *vec.Matrix
	// Filter, when non-nil, enables the filtered setting: candidate
	// corruptions that form a known positive triple are excluded from the
	// ranking (the "FilteredMRR" of the paper's hyperparameter table).
	Filter *kg.TripleSet
	// NumCandidates limits ranking to a random sample of corrupting
	// entities plus the true one (0 ranks against every entity). The
	// paper's Freebase-86m runs use n_e = 1000.
	NumCandidates int
	// Seed drives candidate sampling. Each ranked (triple, side) item
	// derives an independent RNG from Seed and its index, so results do
	// not depend on Parallelism.
	Seed int64
	// Hits lists the cutoffs to report (default 1, 3, 10).
	Hits []int
	// Parallelism bounds the cores used to rank test triples
	// (0 = runtime.GOMAXPROCS, 1 = serial).
	Parallelism int
}

// Result aggregates the link-prediction metrics.
type Result struct {
	// MRR is the mean reciprocal rank in [0, 1]; higher is better.
	MRR float64
	// MR is the mean rank; lower is better.
	MR float64
	// Hits maps each cutoff k to the fraction of ranks ≤ k.
	Hits map[int]float64
	// N is the number of (triple, side) rankings aggregated.
	N int
}

// String renders the headline metrics in the paper's table format.
func (r Result) String() string {
	return fmt.Sprintf("MRR %.3f | Hits@1 %.3f | Hits@10 %.3f | MR %.1f",
		r.MRR, r.Hits[1], r.Hits[10], r.MR)
}

// Evaluate ranks every test triple with both head and tail corruption and
// aggregates the metrics. Rankings run concurrently under cfg.Parallelism;
// aggregation walks the ranks in test order, so the result is identical at
// any degree.
func Evaluate(cfg Config, test []kg.Triple) (Result, error) {
	if cfg.Model == nil || cfg.Entities == nil || cfg.Relations == nil {
		return Result{}, fmt.Errorf("eval: model and embedding tables are required")
	}
	if len(test) == 0 {
		return Result{}, fmt.Errorf("eval: empty test set")
	}
	hits := cfg.Hits
	if len(hits) == 0 {
		hits = []int{1, 3, 10}
	}
	// Item 2i ranks test[i] under head corruption, item 2i+1 under tail
	// corruption — the same order the serial protocol walked.
	ranks := par.Map(par.Degree(cfg.Parallelism), 2*len(test), func(i int) int {
		return rankOne(cfg, test[i/2], i%2 == 0, cfg.itemRNG(i))
	})

	agg := Result{Hits: make(map[int]float64, len(hits))}
	var sumRR, sumRank float64
	hitCounts := make(map[int]int, len(hits))
	for _, rank := range ranks {
		sumRR += 1 / float64(rank)
		sumRank += float64(rank)
		for _, k := range hits {
			if rank <= k {
				hitCounts[k]++
			}
		}
		agg.N++
	}
	agg.MRR = sumRR / float64(agg.N)
	agg.MR = sumRank / float64(agg.N)
	for _, k := range hits {
		agg.Hits[k] = float64(hitCounts[k]) / float64(agg.N)
	}
	return agg, nil
}

// itemRNG derives ranking item i's private RNG stream. A splitmix-style
// finalizer decorrelates the streams of neighboring indices.
func (cfg Config) itemRNG(i int) *rand.Rand {
	x := uint64(cfg.Seed) + uint64(i+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// sampled reports whether rankings use NumCandidates sampled corruptions
// rather than every entity.
func (cfg Config) sampled() bool {
	return cfg.NumCandidates > 0 && cfg.NumCandidates < cfg.Entities.Rows
}

// rankOne ranks the true entity of tr (head if corruptHead) among candidate
// corruptions. Ties count half, the standard "average" tie policy, so
// constant scoring functions get chance-level rather than perfect ranks.
func rankOne(cfg Config, tr kg.Triple, corruptHead bool, rng *rand.Rand) int {
	r := cfg.Relations.Row(int(tr.Relation))
	h := cfg.Entities.Row(int(tr.Head))
	t := cfg.Entities.Row(int(tr.Tail))
	trueScore := cfg.Model.Score(h, r, t)

	// Ranking against every entity is one sweep over the table (countAll);
	// sampled candidates are scattered rows, gathered and scored one at a
	// time below.
	known := cfg.knownAnswers(tr, corruptHead)
	higher, equal := 0, 0
	var candidates []kg.EntityID
	if cfg.sampled() {
		candidates = cfg.sampleCandidates(tr, corruptHead, rng)
	} else {
		higher, equal = countAll(cfg, tr, corruptHead, trueScore, known)
	}
	for _, e := range candidates {
		if corruptHead && e == tr.Head || !corruptHead && e == tr.Tail {
			continue
		}
		if _, ok := slices.BinarySearch(known, e); ok {
			continue
		}
		var s float32
		if corruptHead {
			s = cfg.Model.Score(cfg.Entities.Row(int(e)), r, t)
		} else {
			s = cfg.Model.Score(h, r, cfg.Entities.Row(int(e)))
		}
		switch {
		case s > trueScore:
			higher++
		case s == trueScore:
			equal++
		}
	}
	rank := 1 + higher
	if equal > 0 {
		rank += (equal + 1) / 2 // average tie position, rounded up
	}
	return rank
}

// knownAnswers returns the filter's sorted list of entities that complete
// tr's query to a known triple: the heads of (r, t) when corrupting the
// head, the tails of (h, r) otherwise. A candidate in it is a known
// positive and is left out of the ranking. Without a filter it is nil.
func (cfg Config) knownAnswers(tr kg.Triple, corruptHead bool) []kg.EntityID {
	switch {
	case cfg.Filter == nil:
		return nil
	case corruptHead:
		return cfg.Filter.Heads(tr.Relation, tr.Tail)
	}
	return cfg.Filter.Tails(tr.Head, tr.Relation)
}

// rankTile is how many entity rows countAll scores per kernel call.
const rankTile = 256

// countAll counts, over every entity but the true one, the corruptions of tr
// that score above and exactly at trueScore. The table is scored in id order
// by one prepared sweep, whose results carry the bits of Model.Score
// (model.Sweep's contract), so the counts are those of a per-row loop. A
// candidate below the true score moves no rank, so known, the query's
// filter list, is binary-searched only for the few at or above it.
func countAll(cfg Config, tr kg.Triple, corruptHead bool, trueScore float32, known []kg.EntityID) (higher, equal int) {
	ents := cfg.Entities
	r := cfg.Relations.Row(int(tr.Relation))
	var sw model.Sweep
	trueEnt := tr.Tail
	if corruptHead {
		sw.Reset(cfg.Model, ents.Row(int(tr.Tail)), r, false)
		trueEnt = tr.Head
	} else {
		sw.Reset(cfg.Model, ents.Row(int(tr.Head)), r, true)
	}
	var scores [rankTile]float32
	for lo := 0; lo < ents.Rows; lo += rankTile {
		hi := min(lo+rankTile, ents.Rows)
		sw.Score(scores[:hi-lo], ents.Data[lo*ents.Dim:hi*ents.Dim])
		for i, s := range scores[:hi-lo] {
			if !(s >= trueScore) {
				continue
			}
			e := kg.EntityID(lo + i)
			if e == trueEnt {
				continue
			}
			if _, ok := slices.BinarySearch(known, e); ok {
				continue
			}
			if s > trueScore {
				higher++
			} else {
				equal++
			}
		}
	}
	return higher, equal
}

// sampleCandidates draws NumCandidates distinct corrupting entity ids.
func (cfg Config) sampleCandidates(tr kg.Triple, corruptHead bool, rng *rand.Rand) []kg.EntityID {
	n := cfg.Entities.Rows
	seen := make(map[kg.EntityID]struct{}, cfg.NumCandidates)
	out := make([]kg.EntityID, 0, cfg.NumCandidates)
	for len(out) < cfg.NumCandidates {
		e := kg.EntityID(rng.Intn(n))
		if corruptHead && e == tr.Head || !corruptHead && e == tr.Tail {
			continue
		}
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		out = append(out, e)
	}
	return out
}
