#!/bin/sh
# Shard-outage survival drill: 2 real hetkg ps shards, 1 hetkg train worker
# in degraded mode, SIGSTOP one shard for 10 s mid-run, SIGCONT it, and
# verify the run rides the outage out — stale-serving pulls from the hot
# cache, buffering pushes, replaying them on reconnect — and finishes with
# an MRR within noise of an undisturbed baseline. The scripted version of
# OPERATIONS.md's "Surviving a shard outage" walkthrough; CI runs it on
# every push and it must stay under two minutes.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do
        kill -CONT "$p" 2>/dev/null || true
        kill -9 "$p" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "== building hetkg"
go build -o "$tmp/hetkg" ./cmd/hetkg

# One fast, small run config shared by every process (the deterministic
# derivation demands it). The trainer rides outages out: a short RPC
# deadline so failures surface in milliseconds, a staleness budget wide
# enough for the whole drill, and a cache sized and censused to hold every
# row training can touch: -prefetch 2000 makes the one-shot CPS census span
# ~18 epochs, whose ~256k uniform negative draws over 500 entities reach
# the full keyspace, so every degraded pull is stale-servable. Evaluation
# is deferred to the end so no epoch barrier needs the downed shard. Epoch
# count is sized so the run comfortably outlasts the 12 s fault window.
# The shared artifact cache generates the dataset and partition once for
# the whole drill (2 shard pairs + 2 trainers) instead of once per process.
addr0=127.0.0.1:17980
addr1=127.0.0.1:17981
cfg="-dataset fb15k -scale tiny -machines 2 -seed 42 -artifacts $tmp/artifacts"
traincfg="$cfg -system hetkg-c -shards $addr0,$addr1 -epochs 250 -batch 16 \
    -cache 100000 -prefetch 2000 -degraded-max-staleness 100000 \
    -rpc-timeout 500ms -eval-every 1000"

# start_shards run-label: brings up a fresh shard pair writing to
# shard<machine>.<label>.log and records their pids in shard0/shard1.
# Each run needs fresh processes — shards derive their initial rows at
# startup and training mutates them, so reuse would resume from trained
# state and make the two finals incomparable.
start_shards() {
    # shellcheck disable=SC2086
    "$tmp/hetkg" ps $cfg -machine 0 -listen "$addr0" >"$tmp/shard0.$1.log" 2>&1 &
    shard0=$!
    pids="$pids $shard0"
    # shellcheck disable=SC2086
    "$tmp/hetkg" ps $cfg -machine 1 -listen "$addr1" >"$tmp/shard1.$1.log" 2>&1 &
    shard1=$!
    pids="$pids $shard1"
    for log in "$tmp/shard0.$1.log" "$tmp/shard1.$1.log"; do
        i=0
        while ! grep -q "serving" "$log"; do
            i=$((i + 1))
            [ "$i" -le 100 ] || { echo "FAIL: shard did not start"; cat "$log"; exit 1; }
            sleep 0.1
        done
    done
}

mrr_of() {
    sed -n 's/^final: MRR \([0-9.]*\).*/\1/p' "$1"
}

echo "== baseline run (no faults)"
start_shards base
# shellcheck disable=SC2086
if ! "$tmp/hetkg" train $traincfg >"$tmp/base.log" 2>&1; then
    echo "FAIL: baseline run exited nonzero"; cat "$tmp/base.log"; exit 1
fi
kill -9 "$shard0" "$shard1" 2>/dev/null || true
base_mrr=$(mrr_of "$tmp/base.log")
[ -n "$base_mrr" ] || { echo "FAIL: baseline printed no final MRR"; cat "$tmp/base.log"; exit 1; }
echo "   baseline MRR $base_mrr"

echo "== chaos run: SIGSTOP shard 1 for 10s mid-run"
start_shards chaos
victim=$shard1
# shellcheck disable=SC2086
"$tmp/hetkg" train $traincfg -timeline "$tmp/chaos.tl.jsonl" >"$tmp/chaos.log" 2>&1 &
trainer=$!
pids="$pids $trainer"
sleep 2
kill -0 "$trainer" 2>/dev/null || {
    echo "FAIL: trainer finished before the fault (raise -epochs)"; cat "$tmp/chaos.log"; exit 1; }
kill -STOP "$victim"
echo "   shard 1 stopped"
sleep 10
kill -CONT "$victim"
echo "   shard 1 resumed"

i=0
while kill -0 "$trainer" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 600 ] || { echo "FAIL: trainer did not finish after the outage"; cat "$tmp/chaos.log"; exit 1; }
    sleep 0.1
done
if ! wait "$trainer"; then
    echo "FAIL: trainer exited nonzero"
    cat "$tmp/chaos.log"
    exit 1
fi

echo "== verifying the outage was survived, not dodged"
# Non-vacuity: the trainer prints nothing until the run completes, so the
# proof the fault landed lives in the timeline counters — degraded batches
# were trained from stale cache rows, buffered pushes were replayed, and
# the link layer reconnected.
grep -q '"train.degraded.stale_rows":{"kind":"counter","count":' "$tmp/chaos.tl.jsonl" || {
    echo "FAIL: no stale-served rows recorded — did the fault land?"
    tail -2 "$tmp/chaos.tl.jsonl"; exit 1; }
grep -q '"train.degraded.replayed_rows":{"kind":"counter","count":' "$tmp/chaos.tl.jsonl" || {
    echo "FAIL: no buffered pushes were replayed"
    tail -2 "$tmp/chaos.tl.jsonl"; exit 1; }
grep -q '"ps.link.reconnects":{"kind":"counter","count":' "$tmp/chaos.tl.jsonl" || {
    echo "FAIL: the link layer never reconnected"
    tail -2 "$tmp/chaos.tl.jsonl"; exit 1; }
grep -q "^final:" "$tmp/chaos.log" || {
    echo "FAIL: chaos run printed no final evaluation"; cat "$tmp/chaos.log"; exit 1; }

chaos_mrr=$(mrr_of "$tmp/chaos.log")
echo "   chaos MRR $chaos_mrr (baseline $base_mrr)"
# Stale pulls and coalesced replays perturb the trajectory, so the finals
# need not match bit-for-bit — but a run that survived in name only (lost
# updates, poisoned state) craters its MRR. 0.05 absolute is ~5x the
# seed-to-seed noise at this scale.
awk -v a="$base_mrr" -v b="$chaos_mrr" 'BEGIN {
    d = a - b; if (d < 0) d = -d
    if (d > 0.05) { printf "FAIL: MRR drifted %.3f (baseline %s, chaos %s)\n", d, a, b; exit 1 }
}' || exit 1

echo "chaos smoke: OK"
grep "^final:" "$tmp/chaos.log"
