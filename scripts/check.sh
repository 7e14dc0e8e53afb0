#!/bin/sh
# Tier-2 gate: static analysis plus the full test suite under the race
# detector. The deterministic parallel engine (internal/par) and the code
# built on it (train batch compute, eval ranking) must stay race-free at
# any parallelism, so -race covers every package, not just internal/par.
# Then the two things a plain `go test` never executes: the benchmarks of
# the sweep stack and of the training and codec kernels (one iteration
# each, so they cannot rot) and short fuzzes of
# the decoders that take bytes nobody vouches for: the two servers that read
# them off the network unauthenticated (the HTTP query decoder and the
# parameter-server shard session), the frame every durable file — a
# checkpoint, progress snapshot or artifact entry — is read back through,
# together with the checkpoint and progress bodies inside it, the plan-file
# parser and sweep resolver, and the span-dump reader with the analysis
# `hetkg trace spans` runs on what it reads.
#
# Every "is it documented" check — exported declarations, metric, span,
# serving and codec profile names, plan keys, the generated flag reference,
# no doc naming a removed binary — is a Go test (docs_test.go,
# cmd/hetkg/flags_test.go) that runs with the suite below and in tier-1.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go test -race ./..."
go test -race ./...

echo "== every benchmark of the sweep stack and the element kernels compiles and runs once"
go test -run '^$' -bench . -benchtime 1x ./internal/vec ./internal/model ./internal/knn ./internal/serve ./internal/ps

echo "== fuzz the serving request decoder (20 s)"
go test -run '^$' -fuzz FuzzServeRequest -fuzztime 20s ./internal/serve

echo "== fuzz the parameter-server shard session (20 s)"
go test -run '^$' -fuzz FuzzShardSession -fuzztime 20s ./internal/ps

echo "== fuzz the durable-file frame, checkpoint and progress decoders (20 s)"
go test -run '^$' -fuzz FuzzFrameDecode -fuzztime 20s ./internal/frame

echo "== fuzz the plan-file parser and sweep resolver (20 s)"
go test -run '^$' -fuzz FuzzPlanParse -fuzztime 20s ./internal/plan

echo "== fuzz the span-dump reader, analyzer and Chrome export (20 s)"
go test -run '^$' -fuzz FuzzSpanDump -fuzztime 20s ./internal/span

echo "== benchmark module (vet + tests against this tree)"
# benchmark/ is a separate module compiled against internal/*; tier-1 vets
# it (TestBenchmarkModuleBuilds), this also runs its own tests.
(cd benchmark && go vet ./... && go test ./...)

echo "check: OK"
