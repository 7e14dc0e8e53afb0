#!/bin/sh
# Multi-process cluster smoke drill: 2 real hetkg ps shards (one of them
# the coordinator), 2 real hetkg train elastic workers, SIGKILL one worker
# mid-epoch, and verify the survivor adopts its partitions and finishes
# the run. The scripted version of OPERATIONS.md's failure walkthrough;
# CI runs it on every push and it must stay under a minute.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "== building hetkg"
go build -o "$tmp/hetkg" ./cmd/hetkg

# One fast, small run config, shared by every process (the deterministic
# derivation demands it); trainers add the loop knobs shards don't take.
# Aggressive timings so detection fits in seconds. A shared artifact cache
# means the dataset and partition are generated once, not once per process.
addr0=127.0.0.1:17970
addr1=127.0.0.1:17971
obsaddr=127.0.0.1:17972
cfg="-dataset fb15k -scale tiny -machines 2 -seed 42 -artifacts $tmp/artifacts"
traincfg="$cfg -system hetkg-c -epochs 12 -batch 16 -join $addr0 -ckpt-dir $tmp/ckpt -ckpt-every 4"

echo "== starting shards (coordinator on $addr0)"
# The coordinator comes up first so shard 1's telemetry dial succeeds on
# the first attempt and its report reaches /fleet without a retry delay.
# shellcheck disable=SC2086
"$tmp/hetkg" ps $cfg -machine 0 -listen "$addr0" \
    -coordinator -shards "$addr0,$addr1" \
    -heartbeat-interval 100ms -worker-timeout 400ms \
    -metrics-addr "$obsaddr" \
    >"$tmp/shard0.log" 2>&1 &
pids="$pids $!"
i=0
while ! grep -q "serving" "$tmp/shard0.log"; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "FAIL: coordinator did not start"; cat "$tmp/shard0.log"; exit 1; }
    sleep 0.1
done
# shellcheck disable=SC2086
"$tmp/hetkg" ps $cfg -machine 1 -listen "$addr1" -telemetry "$addr0" \
    >"$tmp/shard1.log" 2>&1 &
pids="$pids $!"
i=0
while ! grep -q "serving" "$tmp/shard1.log"; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "FAIL: shard 1 did not start"; cat "$tmp/shard1.log"; exit 1; }
    sleep 0.1
done

echo "== starting victim worker (owns both partitions)"
# shellcheck disable=SC2086
"$tmp/hetkg" train $traincfg >"$tmp/victim.log" 2>&1 &
victim=$!
pids="$pids $victim"

# Progress proof: the victim's first snapshot file means it is mid-epoch.
i=0
while [ -z "$(ls "$tmp/ckpt" 2>/dev/null)" ]; do
    i=$((i + 1))
    [ "$i" -le 200 ] || { echo "FAIL: victim never snapshotted"; cat "$tmp/victim.log"; exit 1; }
    sleep 0.05
done

echo "== starting survivor worker (joins as a spare)"
# shellcheck disable=SC2086
"$tmp/hetkg" train $traincfg >"$tmp/survivor.log" 2>&1 &
survivor=$!
pids="$pids $survivor"

i=0
while ! grep -q "joined, 2 live" "$tmp/shard0.log"; do
    i=$((i + 1))
    [ "$i" -le 200 ] || { echo "FAIL: survivor never joined"; cat "$tmp/survivor.log"; exit 1; }
    sleep 0.05
done

echo "== fleet view shows every process (hetkg top -once)"
# Both shards ship telemetry (the coordinator in-process, shard 1 over the
# wire) and both workers piggyback reports on their heartbeats, so within a
# couple of heartbeat intervals the coordinator's /fleet must list all four
# processes. Poll because the survivor's first piggybacked report can trail
# its join by one heartbeat (process rows are indented, alert lines start
# with "  [", so ^  worker/ counts rows only).
fleet_ok=""
i=0
while [ "$i" -le 100 ]; do
    i=$((i + 1))
    if "$tmp/hetkg" top -addr "$obsaddr" -once >"$tmp/top.log" 2>&1 \
        && grep -q "shard/machine-0" "$tmp/top.log" \
        && grep -q "shard/machine-1" "$tmp/top.log" \
        && [ "$(grep -c "^  worker/" "$tmp/top.log")" -eq 2 ]; then
        fleet_ok=1
        break
    fi
    sleep 0.05
done
[ -n "$fleet_ok" ] || {
    echo "FAIL: fleet view did not list all 4 processes"
    cat "$tmp/top.log"; cat "$tmp/shard0.log"; exit 1; }
# Mid-run, with everything healthy, none of the anomaly rules may be
# active: straggler (no slow worker), telemetry_lag (reports flowing),
# comm_stall (bytes moving). cache_degraded is tolerated — the tiny-scale
# cache genuinely sits below the 0.2 hit-ratio floor, so that rule firing
# here is a true positive, not noise.
if grep -E "straggler|telemetry_lag|comm_stall" "$tmp/top.log"; then
    echo "FAIL: unexpected fleet alerts"; cat "$tmp/top.log"; exit 1
fi

echo "== SIGKILLing the victim mid-epoch"
kill -9 "$victim"

# The survivor must detect the death (via the coordinator), adopt both
# partitions, finish every epoch, and exit 0 with a final evaluation.
i=0
while kill -0 "$survivor" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 450 ] || { echo "FAIL: survivor did not finish"; cat "$tmp/survivor.log"; exit 1; }
    sleep 0.1
done
if ! wait "$survivor"; then
    echo "FAIL: survivor exited nonzero"
    cat "$tmp/survivor.log"
    exit 1
fi

echo "== verifying the recovery actually happened"
grep -q "expired after" "$tmp/shard0.log" || {
    echo "FAIL: coordinator never expired the victim"; cat "$tmp/shard0.log"; exit 1; }
grep -q "adopted partition" "$tmp/survivor.log" || {
    echo "FAIL: survivor never adopted a partition"; cat "$tmp/survivor.log"; exit 1; }
grep -q "^final:" "$tmp/survivor.log" || {
    echo "FAIL: survivor printed no final evaluation"; cat "$tmp/survivor.log"; exit 1; }

echo "cluster smoke: OK"
grep "^final:" "$tmp/survivor.log"
