#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json. Run from the repository root:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Builds the benchmark (its own module, which replaces the hetkg module with
# the checkout's source) into .bench_build/ and runs it. Everything the Go
# toolchain writes — build cache, module cache, telemetry — stays inside the
# checkout. Outside a full checkout the build fails and this exits non-zero.
set -euo pipefail
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
export XDG_CONFIG_HOME="$build/config"
go -C "$root/benchmark" build -o "$build/hetkg-benchmark" .
exec "$build/hetkg-benchmark" "$@"
