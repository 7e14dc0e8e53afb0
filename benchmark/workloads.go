package main

import (
	"fmt"

	"hetkg"
)

// workload is one fixed-work input of the benchmark: exactly one of Train
// and Serve is set. Work per round is fixed (epochs / request count), so
// every deterministic count is comparable across commits; -seconds only
// decides how many rounds a run repeats.
type workload struct {
	Name  string
	Why   string
	Train *trainSpec
	Serve *serveSpec
}

// trainSpec is a training workload: Config is handed to hetkg.Run with the
// seed, Epochs and the generated graph filled in. TCP hosts one loopback
// shard per machine; otherwise the in-process transport is used.
type trainSpec struct {
	Config hetkg.RunConfig
	TCP    bool
	// Epochs is the fixed work of one timed round; ReplayEpochs is how many
	// of them the traced replay (and its untraced twin) runs.
	Epochs       int
	ReplayEpochs int
}

// serveSpec is the closed-loop HTTP workload over a synthetic checkpoint.
type serveSpec struct {
	Entities, Relations, Dim int
	Clients                  int // closed-loop keep-alive HTTP clients
	RequestsPerClient        int // fixed work of one timed round
	ReplayRequests           int // requests the single-client replay sends
	Warmup                   int
	ZipfS                    float64 // entity-key skew
	// Mix is the cumulative request mix in percent: predict < PredictPct,
	// score < PredictPct+ScorePct, neighbors otherwise.
	PredictPct, ScorePct int
	K                    int
}

// workloads returns the benchmark's five workloads. short shrinks them to a
// smoke size (tiny graphs, one short round) that exercises every code path
// of the harness in a few seconds; its numbers mean nothing.
func workloads(short bool) []workload {
	ws := []workload{
		{
			Name: "tcp-wide",
			Why:  "DGL-KE fb15k, 2 loopback shards, dim 128, batch 256: few large RPCs, so ps.Client row copies, gob encoding of big float slices and shard apply dominate",
			Train: &trainSpec{TCP: true, Epochs: 3, ReplayEpochs: 2, Config: hetkg.RunConfig{
				Dataset: "fb15k", Scale: hetkg.ScaleSmall, System: hetkg.SystemDGLKE,
				Machines: 2, Dim: 128, BatchSize: 256,
			}},
		},
		{
			Name: "tcp-chatty",
			Why:  "DGL-KE wn18, 4 loopback shards, dim 16, batch 32: many tiny RPCs, so per-message framing, syscalls and the serial per-shard fan-out dominate and payload size does not",
			Train: &trainSpec{TCP: true, Epochs: 6, ReplayEpochs: 2, Config: hetkg.RunConfig{
				Dataset: "wn18", Scale: hetkg.ScaleSmall, System: hetkg.SystemDGLKE,
				Machines: 4, Dim: 16, BatchSize: 32,
			}},
		},
		{
			Name: "tcp-hotcache",
			Why:  "HET-KG-D freebase86m (Zipf), 2 loopback shards, 20% hot cache, P 8, D 16, delta-int8: the paper's system, cache and codec do the work and the wire carries little",
			Train: &trainSpec{TCP: true, Epochs: 2, ReplayEpochs: 2, Config: hetkg.RunConfig{
				Dataset: "freebase86m", Scale: hetkg.ScaleSmall, System: hetkg.SystemHETKGD,
				Machines: 2, Dim: 64, BatchSize: 128,
				CacheBudget: 0.2, CacheSyncEvery: 8, CachePrefetchD: 16, Codec: "delta-int8",
			}},
		},
		{
			Name: "inproc-compute",
			Why:  "DGL-KE fb15k ComplEx, 1 machine, in-process transport, dim 128, 32 negatives: no socket and no cache, sampler and model kernels dominate; the bypass for wire and cache changes",
			Train: &trainSpec{Epochs: 2, ReplayEpochs: 2, Config: hetkg.RunConfig{
				Dataset: "fb15k", Scale: hetkg.ScaleSmall, System: hetkg.SystemDGLKE,
				Machines: 1, Dim: 128, BatchSize: 128, ModelName: "complex", NegPerPos: 32,
			}},
		},
		{
			Name: "serve-zipf",
			Why:  "query server over 20000x64 TransE, closed loop, 2 keep-alive HTTP clients, Zipf(1.1) keys, 50% predict 40% score 10% neighbors: sweep, lookup and knn latencies in one run",
			Serve: &serveSpec{
				Entities: 20000, Relations: 200, Dim: 64,
				Clients: 2, RequestsPerClient: 800, ReplayRequests: 2000, Warmup: 200,
				ZipfS: 1.1, PredictPct: 50, ScorePct: 40, K: 10,
			},
		},
	}
	if short {
		for i := range ws {
			if t := ws[i].Train; t != nil {
				t.Config.Scale = hetkg.ScaleTiny
				t.Epochs, t.ReplayEpochs = 2, 1
			}
			if s := ws[i].Serve; s != nil {
				s.Entities, s.Relations = 2000, 40
				s.RequestsPerClient, s.ReplayRequests, s.Warmup = 50, 100, 20
			}
		}
	}
	return ws
}

// findWorkload returns the workload called name.
func findWorkload(name string, short bool) (workload, error) {
	for _, w := range workloads(short) {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
