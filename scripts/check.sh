#!/bin/sh
# Tier-2 gate, as named steps: `scripts/check.sh` runs every step in order,
# `scripts/check.sh STEP...` runs the named ones. CI's tier-2 job calls each
# step once (ci_test.go holds the two lists together).
#
#   vet, race      static analysis, then the full test suite under the race
#                  detector: the deterministic parallel engine (internal/par)
#                  and the code built on it (train batch compute, eval
#                  ranking) must stay race-free at any parallelism, so -race
#                  covers every package, not just internal/par.
#   fanout-race    the per-shard rounds a parameter-server client runs, ten
#                  more times under -race, since a scheduling-dependent bug
#                  shows only in some runs.
#   bench          the benchmarks of the sweep stack, of the training,
#                  optimizer and codec kernels, of the sampler and its
#                  filter index and of the partitioner at the tcp-*
#                  workloads' shapes, and the root training-step benchmarks
#                  (BenchmarkProcessBatch*), one iteration each, so they
#                  cannot rot.
#   fuzz-*         20 s fuzzes of the decoders that take bytes nobody vouches
#                  for: the two servers that read them off the network
#                  unauthenticated (the HTTP query decoder and the
#                  parameter-server shard session), the frame every durable
#                  file — a checkpoint, progress snapshot or artifact entry —
#                  is read back through, with the checkpoint, progress,
#                  dataset and partition bodies inside it (a decoded graph
#                  is one kg.NewGraph accepts, a decoded partitioning keeps
#                  every entity in [0,K)), the plan-file parser and sweep
#                  resolver,
#                  the span-dump reader with the analysis `hetkg trace spans`
#                  runs on what it reads, the run-timeline reader `hetkg
#                  trace` compares runs with, and the hetkg-bench/v3 snapshot
#                  reader `hetkg compare` gates on (no panic, no allocation
#                  sized by the input, emitter output round-trips).
#   fuzz-link-frames  20 s of the shard-link frame codec: request frames
#                  round-trip, a request body never sizes keys beyond its
#                  bytes, and the worker's reply reader never grows past a
#                  reply's bound or twice what arrived.
#   fuzz-triple-set  20 s of the filter index (kg.TripleSet) against a map:
#                  every sampler and filtered ranking trusts its answers.
#   fuzz-hot-cache  20 s of operation sequences (Build, Get, Offer, Update,
#                  iteration steps) on the hot-embedding table against a map
#                  shadow: no Get serves a row older than P, an Offer resets
#                  only a cached row's clock, an evicted key is never served.
#   fuzz-kernels   80 s over every AVX2 kernel: 20 s of each package's
#                  kernel fuzzer, all four the one harness fuzz body
#                  (kerneltest.Fuzz), which decodes one case from raw
#                  float32 bits and holds each kernel's entry point to its
#                  Go reference bit for bit, kernels off and on: the sweep
#                  kernels (internal/vec), the ComplEx and TransE-l1
#                  gradients and Sweep.ScoreEach of every model
#                  (internal/model), vec.Add and AdaGrad.Apply (internal/opt).
#   benchmark-module  benchmark/ is a separate module compiled against
#                  internal/*; tier-1 vets it (TestBenchmarkModuleBuilds),
#                  this also runs its own tests.
#
# Every "is it documented" check — exported declarations, metric, span,
# serving and codec profile names, plan keys, the generated flag reference,
# no doc naming a removed binary — is a Go test (docs_test.go,
# cmd/hetkg/flags_test.go) that runs with the suite and in tier-1.
set -eu
cd "$(dirname "$0")/.."

steps="vet race fanout-race bench fuzz-serve-request fuzz-shard-session fuzz-link-frames fuzz-frame fuzz-plan fuzz-span-dump fuzz-timeline fuzz-benchfmt fuzz-triple-set fuzz-hot-cache fuzz-kernels benchmark-module"

fuzz() { # fuzz TARGET PACKAGE TIME
	go test -run '^$' -fuzz "$1" -fuzztime "$3" "$2"
}

step() {
	case "$1" in
	vet)
		echo "== go vet ./..."
		go vet ./... ;;
	race)
		echo "== go test -race ./..."
		go test -race ./... ;;
	fanout-race)
		echo "== a client's per-shard rounds, race detector, ten times"
		go test -race -count=10 -run FanOut ./internal/ps ;;
	bench)
		echo "== every benchmark of the sweep stack, the element kernels, the sampler, the partitioner and the training step compiles and runs once"
		go test -run '^$' -bench . -benchtime 1x ./internal/vec ./internal/model ./internal/opt ./internal/knn ./internal/serve ./internal/ps ./internal/sampler ./internal/kg ./internal/partition
		go test -run '^$' -bench ProcessBatch -benchtime 1x . ;;
	fuzz-serve-request)
		echo "== fuzz the serving request decoder (20 s)"
		fuzz FuzzServeRequest ./internal/serve 20s ;;
	fuzz-shard-session)
		echo "== fuzz the parameter-server shard session (20 s)"
		fuzz FuzzShardSession ./internal/ps 20s ;;
	fuzz-link-frames)
		echo "== fuzz the shard-link frame codec (20 s)"
		fuzz FuzzLinkFrames ./internal/ps 20s ;;
	fuzz-frame)
		echo "== fuzz the durable-file frame and the checkpoint, progress, dataset and partition body decoders (20 s)"
		fuzz FuzzFrameDecode ./internal/frame 20s ;;
	fuzz-plan)
		echo "== fuzz the plan-file parser and sweep resolver (20 s)"
		fuzz FuzzPlanParse ./internal/plan 20s ;;
	fuzz-span-dump)
		echo "== fuzz the span-dump reader, analyzer and Chrome export (20 s)"
		fuzz FuzzSpanDump ./internal/span 20s ;;
	fuzz-timeline)
		echo "== fuzz the run-timeline reader (20 s)"
		fuzz FuzzTimeline ./internal/metrics 20s ;;
	fuzz-benchfmt)
		echo "== fuzz the hetkg-bench/v3 snapshot reader (20 s)"
		fuzz FuzzBenchfmtRead ./internal/plan/benchfmt 20s ;;
	fuzz-triple-set)
		echo "== fuzz the filter index against a map (20 s)"
		fuzz FuzzTripleSet ./internal/kg 20s ;;
	fuzz-hot-cache)
		echo "== fuzz the hot-embedding table against a map shadow (20 s)"
		fuzz FuzzHotCache ./internal/cache 20s ;;
	fuzz-kernels)
		echo "== fuzz every AVX2 kernel against its Go reference (4 x 20 s)"
		fuzz FuzzRowsKernels ./internal/vec 20s
		fuzz FuzzGradKernels ./internal/model 20s
		fuzz FuzzScoreEach ./internal/model 20s
		fuzz FuzzApplyKernels ./internal/opt 20s ;;
	benchmark-module)
		echo "== benchmark module (vet + tests against this tree)"
		(cd benchmark && go vet ./... && go test ./...) ;;
	*)
		echo "check.sh: no step $1 (steps: $steps)" >&2
		exit 2 ;;
	esac
}

if [ $# -eq 0 ]; then
	set -- $steps
fi
for s in "$@"; do
	step "$s"
done
echo "check: OK"
