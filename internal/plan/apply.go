package plan

import (
	"fmt"
	"time"

	"hetkg/internal/artifact"
	"hetkg/internal/core"
	"hetkg/internal/metrics"
	"hetkg/internal/plan/benchfmt"
)

// ApplyOptions configures plan execution.
type ApplyOptions struct {
	// Artifacts, when non-nil, serves dataset generation and partitioning
	// from the content-addressed cache across the plan's runs (and across
	// invocations sharing the directory). Nil disables caching; results are
	// identical either way.
	Artifacts *artifact.Store
	// Logf receives per-run progress lines; nil silences them.
	Logf func(format string, args ...any)
}

// ApplyResult is an executed plan: the hetkg-bench/v3 snapshot plus the
// artifact-cache traffic the plan generated (counter deltas over the run).
type ApplyResult struct {
	File *benchfmt.File
	// CacheHits and CacheMisses are the artifact-store deltas attributable
	// to this Apply — a warm second run of the same plan shows all hits.
	CacheHits, CacheMisses int64
}

// Apply resolves and executes every run of the plan in-process, in matrix
// order, and assembles one snapshot row per run. Each row carries the run's
// canonical config hash, the conventional deterministic measurement set
// under Values — iters, loss, mrr, hit_ratio, bytes_raw, bytes_wire — and
// the two wall-clock readings, wall_ms and iters_per_sec, under Wall.
func Apply(p *Plan, opt ApplyOptions) (*ApplyResult, error) {
	runs, err := p.Resolve()
	if err != nil {
		return nil, err
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var hits0, miss0 int64
	if opt.Artifacts != nil {
		hits0, miss0 = opt.Artifacts.Hits(), opt.Artifacts.Misses()
	}
	base := p.Base
	base.Normalize()
	file := &benchfmt.File{
		Name:  p.Name,
		Scale: base.Scale,
		Seed:  base.Seed,
		Meta: map[string]string{
			"dataset": base.Dataset,
			"model":   base.Model,
			"system":  base.System,
		},
	}
	for i, run := range runs {
		rc, err := run.Spec.RunConfig()
		if err != nil {
			return nil, fmt.Errorf("plan %s: run %s: %w", p.Name, run.Name, err)
		}
		rc.Artifacts = opt.Artifacts
		if rc.Metrics == nil {
			rc.Metrics = metrics.NewRegistry()
		}
		logf("run %d/%d %s (%s)", i+1, len(runs), run.Name, run.Spec.ShortHash())
		start := time.Now()
		res, err := core.Run(rc)
		if err != nil {
			return nil, fmt.Errorf("plan %s: run %s: %w", p.Name, run.Name, err)
		}
		elapsed := time.Since(start)
		iters := float64(res.Metrics.Counter(metrics.MTrainIterations).Value())
		wall := map[string]float64{"wall_ms": float64(elapsed) / float64(time.Millisecond)}
		if secs := elapsed.Seconds(); secs > 0 {
			wall["iters_per_sec"] = iters / secs
		}
		values := map[string]float64{
			"iters":      iters,
			"mrr":        res.Final.MRR,
			"hit_ratio":  res.HitRatio,
			"bytes_raw":  float64(res.Metrics.Counter(metrics.MPSCodecBytesRaw).Value()),
			"bytes_wire": float64(res.Metrics.Counter(metrics.MPSCodecBytesWire).Value()),
		}
		if n := len(res.Epochs); n > 0 {
			values["loss"] = res.Epochs[n-1].Loss
		}
		file.Rows = append(file.Rows, benchfmt.Row{Name: run.Name, Hash: run.Hash, Values: values, Wall: wall})
		logf("  mrr=%.4f loss=%.4f hit=%.3f wall=%s", res.Final.MRR, values["loss"], res.HitRatio, elapsed.Round(time.Millisecond))
	}
	r := &ApplyResult{File: file}
	if opt.Artifacts != nil {
		r.CacheHits = opt.Artifacts.Hits() - hits0
		r.CacheMisses = opt.Artifacts.Misses() - miss0
	}
	return r, nil
}
