#!/bin/sh
# Tier-2 gate: static analysis plus the full test suite under the race
# detector. The deterministic parallel engine (internal/par) and the code
# built on it (train batch compute, eval ranking) must stay race-free at
# any parallelism, so -race covers every package, not just internal/par.
set -eu
cd "$(dirname "$0")/.."

echo "== doc-comment lint (internal/metrics + internal/serve + internal/ckpt + cluster + telemetry layers)"
# Every top-level exported declaration in internal/metrics must carry a doc
# comment: the package is the observability contract other layers (and
# EXPERIMENTS.md) build on, so undocumented surface is a defect here.
# internal/serve is held to the same bar — it is the outward-facing query
# surface (hetkg serve) and the hetkg facade aliases its types. So are
# internal/ckpt and internal/frame (the recovery file formats operators
# depend on), the cluster membership/elastic layer (the wire protocol and
# driver that OPERATIONS.md documents), and the experiment-plan layer
# (internal/plan, internal/artifact — the declarative surface DESIGN.md §14
# documents).
undoc=$(
    for f in internal/metrics/*.go internal/serve/*.go internal/ckpt/*.go \
            internal/frame/*.go internal/telemetry/*.go \
            internal/plan/*.go internal/plan/benchfmt/*.go internal/artifact/*.go \
            internal/ps/member.go internal/train/elastic.go; do
        case "$f" in *_test.go) continue ;; esac
        awk -v file="$f" '
            /^(func|type) [A-Z]/ || /^func \([^)]*\) [A-Z]/ || /^(var|const) [A-Z]/ {
                if (prev !~ /^\/\//)
                    printf "%s:%d: missing doc comment: %s\n", file, FNR, $0
            }
            { prev = $0 }
        ' "$f"
    done
)
if [ -n "$undoc" ]; then
    echo "$undoc"
    echo "check: FAIL (undocumented exported symbols in internal/metrics)"
    exit 1
fi

# The "every name is documented" checks (metric, span, serving and codec
# profile names, plan keys, the generated flag reference, no doc naming a
# removed binary) are Go tests — docs_test.go and cmd/hetkg/flags_test.go —
# that run with the suite below and in tier-1.

echo "== go vet ./..."
go vet ./...

echo "== go test -race ./..."
go test -race ./...

echo "== benchmark module (vet + tests against this tree)"
# benchmark/ is a separate module compiled against internal/*; building it
# here keeps the surface it uses (surface_test.go) enforced on every push.
(cd benchmark && go vet ./... && go test ./...)

echo "check: OK"
