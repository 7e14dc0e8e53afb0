package plan

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"hetkg/internal/artifact"
	"hetkg/internal/metrics"
	"hetkg/internal/plan/benchfmt"
	"hetkg/internal/train"
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
	// TimelineDir and SpanDir, when non-empty, receive one timeline and one
	// span dump per run, named NNN-dataset-system(.spans).jsonl with NNN
	// counting this process's runs. SpanEvery is the span sampling interval.
	TimelineDir, SpanDir string
	SpanEvery            int
	// configure, when an experiment sets it, edits each run's configuration
	// before it executes: the way to reach a train.RunConfig field no plan key
	// does.
	configure func(*train.RunConfig)
}

// outcome is one executed run: the resolved run, its result, and the wall
// time train.Run took.
type outcome struct {
	Run
	Result *train.Result
	Wall   time.Duration
}

// runSeq numbers the per-run timeline and span files of a process, so the
// runs of one invocation sort in execution order.
var runSeq atomic.Int64

// execute resolves p and trains its runs in matrix order, handing each
// finished run to view. It is the one executor: `hetkg apply` (Apply, the
// default view) and every training experiment of `hetkg exp` (a view that
// fills the paper's table) run through it.
func execute(p *Plan, opt ApplyOptions, view func(outcome)) error {
	runs, err := p.Resolve()
	if err != nil {
		return err
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for i, run := range runs {
		rc := run.Spec
		rc.Artifacts = opt.Artifacts
		if opt.TimelineDir != "" || opt.SpanDir != "" {
			stem := fmt.Sprintf("%03d-%s-%s", runSeq.Add(1), rc.Dataset, rc.System)
			if opt.TimelineDir != "" {
				rc.TimelinePath = filepath.Join(opt.TimelineDir, stem+".jsonl")
			}
			if opt.SpanDir != "" {
				rc.SpanPath, rc.SpanEvery = filepath.Join(opt.SpanDir, stem+".spans.jsonl"), opt.SpanEvery
			}
		}
		if opt.configure != nil {
			opt.configure(&rc)
		}
		logf("%s: run %d/%d %s (%s)", p.Name, i+1, len(runs), run.Name, run.ShortHash())
		start := time.Now()
		res, err := train.Run(rc)
		if err != nil {
			return fmt.Errorf("plan %s: run %s: %w", p.Name, run.Name, err)
		}
		o := outcome{Run: run, Result: res, Wall: time.Since(start)}
		logf("  mrr=%.4f loss=%.4f hit=%.3f wall=%s", res.Final.MRR, lastLoss(res), res.HitRatio, o.Wall.Round(time.Millisecond))
		view(o)
	}
	return nil
}

// ApplyResult is an executed plan: the hetkg-bench/v3 snapshot plus the
// artifact-cache traffic the plan generated (counter deltas over the run).
type ApplyResult struct {
	File *benchfmt.File
	// CacheHits and CacheMisses are the artifact-store deltas attributable
	// to this Apply — a warm second run of the same plan shows all hits.
	CacheHits, CacheMisses int64
}

// Apply executes the plan with the default view: one snapshot row per run,
// carrying the run's canonical config hash, the conventional deterministic
// measurement set under Values — iters, loss, mrr, hit_ratio, bytes_raw,
// bytes_wire — and the two wall-clock readings, wall_ms and iters_per_sec,
// under Wall.
func Apply(p *Plan, opt ApplyOptions) (*ApplyResult, error) {
	var hits0, miss0 int64
	if opt.Artifacts != nil {
		hits0, miss0 = opt.Artifacts.Hits(), opt.Artifacts.Misses()
	}
	base := p.Base
	base.Normalize()
	file := &benchfmt.File{
		Name:  p.Name,
		Scale: base.Scale.String(),
		Seed:  base.Seed,
		Meta: map[string]string{
			"dataset": base.Dataset,
			"model":   base.ModelName,
			"system":  spelling(base.System),
		},
	}
	if err := execute(p, opt, func(o outcome) { file.Rows = append(file.Rows, benchRow(o)) }); err != nil {
		return nil, err
	}
	r := &ApplyResult{File: file}
	if opt.Artifacts != nil {
		r.CacheHits = opt.Artifacts.Hits() - hits0
		r.CacheMisses = opt.Artifacts.Misses() - miss0
	}
	return r, nil
}

// benchRow is the default view of one run.
func benchRow(o outcome) benchfmt.Row {
	res := o.Result
	iters := float64(res.Metrics.Counter(metrics.MTrainIterations).Value())
	wall := map[string]float64{"wall_ms": float64(o.Wall) / float64(time.Millisecond)}
	if secs := o.Wall.Seconds(); secs > 0 {
		wall["iters_per_sec"] = iters / secs
	}
	values := map[string]float64{
		"iters":      iters,
		"mrr":        res.Final.MRR,
		"hit_ratio":  res.HitRatio,
		"bytes_raw":  float64(res.Metrics.Counter(metrics.MPSCodecBytesRaw).Value()),
		"bytes_wire": float64(res.Metrics.Counter(metrics.MPSCodecBytesWire).Value()),
	}
	if len(res.Epochs) > 0 {
		values["loss"] = lastLoss(res)
	}
	return benchfmt.Row{Name: o.Name, Hash: o.Hash, Values: values, Wall: wall}
}

// lastLoss is the final epoch's training loss (0 for a run with no epochs).
func lastLoss(res *train.Result) float64 {
	if n := len(res.Epochs); n > 0 {
		return res.Epochs[n-1].Loss
	}
	return 0
}
