package train

import (
	"hetkg/internal/sampler"
)

// BatchBench is a single-worker harness exposing the processBatch hot path
// to the repository's benchmark suite (bench_test.go), which lives outside
// this package. It builds the full PS substrate for cfg, takes the first
// worker, and replays one sampled batch so iterations measure pure
// gather/compute/push work with a stable working set.
type BatchBench struct {
	w *worker
	b *sampler.Batch
}

// NewBatchBench validates cfg, builds the cluster and workers of DGL-KE
// whatever cfg.System says (no cache — the path the paper's compute profile
// measures), and samples the batch to replay.
func NewBatchBench(cfg Config) (*BatchBench, error) {
	cfg.System = SystemDGLKE
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	env, err := setupPS(&cfg)
	if err != nil {
		return nil, err
	}
	d, err := newStatic(&cfg, env)
	if err != nil {
		return nil, err
	}
	w := d.all[0]
	return &BatchBench{w: w, b: w.smp.Next()}, nil
}

// Pairs returns the number of (positive, negative) score pairs the batch
// expands to — the denominator for ns/pair metrics.
func (bb *BatchBench) Pairs() int { return bb.b.NumNegatives() }

// ProcessBatch pushes the replayed batch through the worker hot path once.
func (bb *BatchBench) ProcessBatch() (float64, error) {
	return bb.w.processBatch(bb.b)
}

// ProcessBatchTraced is ProcessBatch under a live root span: every
// iteration is sampled and traced end to end (lookup, compute, RPC and
// shard spans). Benchmarking it against ProcessBatch on a Config without
// Spans measures the tracer's enabled-path overhead; the disabled path is
// plain ProcessBatch, whose tracer is nil.
func (bb *BatchBench) ProcessBatchTraced() (float64, error) {
	root := bb.w.tracer.Root(bb.w.iteration)
	if root.Valid() {
		bb.w.beginSpan(root)
		defer bb.w.endSpan()
	}
	return bb.w.processBatch(bb.b)
}
