// Package core ties the substrates together: it turns a high-level run
// specification (dataset, system, model, scale) into a configured training
// run (Run), or into the one shard a `hetkg ps` process hosts (BuildShard).
// Sweeps of runs — plan files and the paper's experiments — are
// internal/plan's.
package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"hetkg/internal/dataset"
	"hetkg/internal/kg"
	"hetkg/internal/model"
	"hetkg/internal/opt"
	"hetkg/internal/partition"
	"hetkg/internal/ps"
	"hetkg/internal/sampler"
	"hetkg/internal/span"
	"hetkg/internal/train"
)

// System names a training system implementation (train.System).
type System = train.System

// The four systems of the paper's evaluation.
const (
	SystemPBG    = train.SystemPBG
	SystemDGLKE  = train.SystemDGLKE
	SystemHETKGC = train.SystemHETKGC
	SystemHETKGD = train.SystemHETKGD
)

// Systems lists all systems in the paper's table order.
func Systems() []System { return train.Systems() }

// RunConfig is the one description of a training run (train.RunConfig).
type RunConfig = train.RunConfig

// prepared is the state a RunConfig implies before any system-specific
// wiring: everything a trainer (Run) and a shard process (BuildShard) must
// derive identically, because shards receive no state transfer — dataset
// generation, the train/valid/test split, the graph partition and per-key
// embedding initialization are all pure functions of the config's seeds.
type prepared struct {
	// split divides the whole dataset.
	split kg.Split
	model model.Model
	// part is the (artifact-cached) partitioner; newOpt builds the
	// optimizer for a shard or a worker's cached copies.
	part   partition.Partitioner
	newOpt func() opt.Optimizer
}

// Split is the train/valid/test split a run with this seed trains and
// validates on — the one derivation, so a tool scoring a checkpoint's test
// triples (`hetkg eval`) can never be handed triples the run trained on.
// Freebase-86m uses 90/5/5 in the paper; the standard benchmarks keep small
// validation/test tails at our scales.
func Split(g *kg.Graph, seed int64) (kg.Split, error) {
	return kg.SplitTriples(g, rand.New(rand.NewSource(seed+17)), 0.05, 0.05)
}

// prepare resolves rc and derives the run's prepared state.
func prepare(rc *RunConfig) (*prepared, error) {
	rc.Resolve()
	g := rc.Graph
	if g == nil {
		var ok bool
		g, ok = dataset.ByNameCached(rc.Dataset, rc.Scale, rc.Seed, rc.Artifacts)
		if !ok {
			return nil, fmt.Errorf("core: unknown dataset %q (have %v)", rc.Dataset, dataset.Names())
		}
	}
	sp, err := Split(g, rc.Seed)
	if err != nil {
		return nil, err
	}
	mdl, err := model.New(rc.ModelName)
	if err != nil {
		return nil, err
	}
	part, err := partition.New(rc.PartitionerName, rc.Seed)
	if err != nil {
		return nil, err
	}
	name, lr := rc.OptimizerName, float32(rc.LR)
	if _, err := opt.New(name, lr); err != nil {
		return nil, err
	}
	return &prepared{
		split: sp,
		model: mdl,
		part:  partition.Cached(part, rc.Artifacts),
		newOpt: func() opt.Optimizer {
			o, _ := opt.New(name, lr) // validated above
			return o
		},
	}, nil
}

// Run executes the specified training run and returns its result.
func Run(rc RunConfig) (*train.Result, error) {
	p, err := prepare(&rc)
	if err != nil {
		return nil, err
	}
	loss, err := model.NewLoss(rc.LossName, float32(rc.Margin))
	if err != nil {
		return nil, err
	}
	tc := train.Config{
		RunConfig:       rc,
		Train:           p.split.Train,
		Valid:           p.split.Valid.Triples,
		Filter:          p.split.AllTriples(),
		Model:           p.model,
		Loss:            loss,
		Partitioner:     p.part,
		NewOptimizer:    p.newOpt,
		NegativeWeights: negWeights(rc.DegreeWeightedNegatives, p.split.Train),
	}
	if err := tc.Validate(); err != nil { // before joining a cluster
		return nil, err
	}
	if rc.JoinAddr != "" {
		cc, err := ps.DialCoordinator(rc.JoinAddr, 0)
		if err != nil {
			return nil, err
		}
		defer cc.Close()
		if tc.Elastic, err = joinCluster(&rc, cc); err != nil {
			return nil, err
		}
	}
	var timelineFile *os.File
	if rc.TimelinePath != "" {
		if dir := filepath.Dir(rc.TimelinePath); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, fmt.Errorf("core: creating timeline directory: %w", err)
			}
		}
		f, err := os.Create(rc.TimelinePath)
		if err != nil {
			return nil, fmt.Errorf("core: creating timeline: %w", err)
		}
		timelineFile = f
		tc.Timeline = f
	}
	var spans *span.Collector
	if rc.SpanPath != "" {
		spans = span.NewCollector(span.CollectorConfig{Every: rc.SpanEvery})
		tc.Spans = spans
	}
	res, err := train.Run(tc)
	if err != nil && tc.Elastic != nil {
		// A failed worker holds its partitions until the coordinator's
		// worker timeout; hand them back now. Best effort: the timeout
		// still releases them if this fails.
		_ = tc.Elastic.Coordinator.Leave(ps.LeaveRequest{WorkerID: tc.Elastic.Join.WorkerID})
	}
	if timelineFile != nil {
		if cerr := timelineFile.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("core: closing timeline: %w", cerr)
		}
	}
	if spans != nil && err == nil {
		hdr := span.Header{System: res.System, Dataset: rc.Dataset, Every: spans.Every(), Seed: rc.Seed}
		if werr := span.WriteFile(rc.SpanPath, hdr, spans.Drain()); werr != nil {
			return res, fmt.Errorf("core: writing spans: %w", werr)
		}
	}
	return res, err
}

// negWeights builds deg^0.75 corruption weights when requested.
func negWeights(enabled bool, g *kg.Graph) []float64 {
	if !enabled {
		return nil
	}
	return sampler.DegreeWeights(g.EntityDegrees())
}
