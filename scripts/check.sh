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
# surface (hetkg-serve) and the hetkg facade aliases its types. So are
# internal/ckpt (the recovery file formats operators depend on), the
# cluster membership/elastic layer (the wire protocol and driver that
# OPERATIONS.md documents), and the experiment-plan layer (internal/plan,
# internal/artifact — the declarative surface DESIGN.md §14 documents).
undoc=$(
    for f in internal/metrics/*.go internal/serve/*.go internal/ckpt/*.go \
            internal/telemetry/*.go \
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

# The "every name in names.go is documented" checks (EXPERIMENTS.md metrics,
# OPERATIONS.md cluster/fleet/link metrics, DESIGN.md spans and §9 serving
# names) are TestNamesAreDocumented in docs_test.go; they run with the suite
# below and in tier-1.

echo "== codec profile coverage lint"
# Every registered codec profile in internal/ps/codec.go must (a) appear in
# EXPERIMENTS.md (the sweep documents its measured cost/accuracy trade-off)
# and (b) be exercised by name in internal/ps/codec_test.go (golden wire
# format / negotiation coverage) — no profile ships unmeasured or untested.
missing=0
for name in $(sed -n 's/^\tProfile[A-Za-z0-9]* = "\([a-z0-9-]*\)"$/\1/p' internal/ps/codec.go); do
    if ! grep -qF "\`$name\`" EXPERIMENTS.md; then
        echo "EXPERIMENTS.md does not document codec profile \"$name\""
        missing=1
    fi
    if ! grep -qF "\"$name\"" internal/ps/codec_test.go; then
        echo "internal/ps/codec_test.go does not cover codec profile \"$name\""
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "check: FAIL (codec profile without docs or tests)"
    exit 1
fi

echo "== DESIGN.md §14 plan key coverage lint"
# Every plan key (the `plan:"..."` struct tags on internal/plan.RunSpec)
# must be documented in DESIGN.md §14's schema table: the plan file is a
# user-facing config surface, so an undocumented knob is a defect. The
# extraction is guarded against going silently empty if the tags move.
plansection=$(sed -n '/^## 14\. /,$p' DESIGN.md)
if [ -z "$plansection" ]; then
    echo "DESIGN.md has no '## 14.' experiment-plan section"
    echo "check: FAIL (missing plan schema doc)"
    exit 1
fi
plankeys=$(sed -n 's/.*plan:"\([A-Za-z0-9]*\)".*/\1/p' internal/plan/spec.go)
if [ -z "$plankeys" ]; then
    echo "internal/plan/spec.go defines no plan:\"...\" tags (lint pattern stale?)"
    echo "check: FAIL (plan key extraction came up empty)"
    exit 1
fi
missing=0
for key in $plankeys; do
    if ! printf '%s' "$plansection" | grep -qF "\`$key\`"; then
        echo "DESIGN.md §14 does not document plan key \"$key\""
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "check: FAIL (undocumented plan keys)"
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go test -race ./..."
go test -race ./...

echo "== benchmark module (vet + tests against this tree)"
# benchmark/ is a separate module compiled against internal/*; building it
# here keeps the surface it uses (surface_test.go) enforced on every push.
(cd benchmark && go vet ./... && go test ./...)

echo "check: OK"
