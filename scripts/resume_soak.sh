#!/usr/bin/env bash
# Kill-and-resume soak for the resumable sweep runner and the sweepd
# service daemon.
#
# Proves the headline robustness claims end to end with real signals:
#
#  1. a `faults` sweep is SIGINTed twice mid-run, resumed each time, and
#     the final results/faults.json must be byte-identical to an
#     uninterrupted reference run;
#  2. the same sweep is submitted to a live `sweepd` fleet, one worker
#     is `kill -9`ed while it holds a cell lease, and the finalized
#     artifacts must still be byte-identical to the reference.
#
# Usage: scripts/resume_soak.sh [path-to-metanmp-experiments] [path-to-sweepd]
set -euo pipefail

BIN=${1:-./target/release/metanmp-experiments}
BIN=$(readlink -f "$BIN")
SWEEPD=${2:-./target/release/sweepd}
SEED=7

work=$(mktemp -d "${TMPDIR:-/tmp}/metanmp-soak.XXXXXX")
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT
mkdir -p "$work/reference" "$work/sweep-run"

echo "== reference: uninterrupted run =="
(cd "$work/reference" && "$BIN" faults --seed "$SEED")
ref="$work/reference/results/faults.json"
[ -s "$ref" ] || { echo "FAIL: reference produced no results/faults.json"; exit 1; }

# Launch a sweep, SIGINT it after a grace period, and require the
# "interrupted, resumable" exit code (3). The process handles the signal
# cooperatively: it finishes checkpointing before exiting, so waiting on
# the pid is enough to know the sweep directory is consistent.
interrupt_once() {
    local resume_flag=$1
    cd "$work/sweep-run"
    "$BIN" faults --seed "$SEED" "$resume_flag" sweep --ckpt-interval 64 &
    local pid=$!
    sleep 2
    kill -INT "$pid" 2>/dev/null || true
    local status=0
    wait "$pid" || status=$?
    cd - >/dev/null
    if [ "$status" -eq 0 ]; then
        # The run beat the signal. That's not a soak failure, but it means
        # this round exercised nothing; report it so slow-machine tuning
        # (sleep / --ckpt-interval) can be revisited.
        echo "  (run completed before SIGINT landed; round skipped)"
        return 10
    fi
    if [ "$status" -ne 3 ]; then
        echo "FAIL: interrupted sweep exited with $status, expected 3 (resumable)"
        exit 1
    fi
    [ -f "$work/sweep-run/sweep/faults.manifest.jsonl" ] || {
        echo "FAIL: interrupted sweep left no manifest behind"
        exit 1
    }
    echo "  interrupted cleanly (exit 3), manifest present"
    return 0
}

echo "== round 1: SIGINT a fresh sweep =="
first=0
interrupt_once --sweep-dir || first=$?

if [ "$first" -eq 0 ]; then
    echo "== round 2: SIGINT the resumed sweep =="
    interrupt_once --resume || true
fi

echo "== final: resume to completion =="
(cd "$work/sweep-run" && "$BIN" faults --seed "$SEED" --resume sweep)
out="$work/sweep-run/results/faults.json"
[ -s "$out" ] || { echo "FAIL: resumed sweep produced no results/faults.json"; exit 1; }

echo "== compare digests =="
if ! cmp "$ref" "$out"; then
    echo "FAIL: resumed results differ from the uninterrupted reference"
    exit 1
fi
echo "PASS: resumed results/faults.json is byte-identical to the reference"

# ---------------------------------------------------------------------------
# Phase 2: sweepd chaos — kill -9 a leased worker, require crash migration
# to finish the sweep with byte-identical artifacts.
# ---------------------------------------------------------------------------
if [ ! -x "$SWEEPD" ]; then
    echo "== sweepd chaos: SKIPPED ($SWEEPD not built) =="
    exit 0
fi
SWEEPD=$(readlink -f "$SWEEPD")
echo "== sweepd chaos: kill -9 a worker holding a lease =="

state="$work/sweepd-state"
log="$work/sweepd.log"
"$SWEEPD" --listen 127.0.0.1:0 --worker-cmd "$BIN" --workers 2 \
    --state-dir "$state" --heartbeat-ms 50 --heartbeat-deadline-ms 800 \
    --ckpt-interval 64 2>"$log" &
DAEMON_PID=$!

# The daemon reports its bound address (port 0 above) on stderr.
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^sweepd: listening on //p' "$log" | head -n 1)
    [ -n "$addr" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || { echo "FAIL: sweepd died on startup"; cat "$log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "FAIL: sweepd never reported a bound address"; cat "$log"; exit 1; }
echo "  daemon up at $addr (pid $DAEMON_PID)"

submitted=$(curl -sf -X POST "http://$addr/sweeps" \
    -d "{\"experiment\":\"faults\",\"seed\":$SEED}")
case "$submitted" in
    '{"id":'*) echo "  sweep accepted: $submitted" ;;
    *) echo "FAIL: POST /sweeps returned: $submitted"; exit 1 ;;
esac
sweep_id=$(printf '%s' "$submitted" | grep -oE '[0-9]+')

# Wait until a worker actually holds a cell lease, then SIGKILL it.
victim=""
for _ in $(seq 1 200); do
    health=$(curl -sf "http://$addr/healthz" || true)
    victim=$(printf '%s' "$health" \
        | grep -oE '"pid":[0-9]+,"restarts":[0-9]+,"lease":"[^"]+"' \
        | head -n 1 | grep -oE '"pid":[0-9]+' | cut -d: -f2 || true)
    [ -n "$victim" ] && break
    sleep 0.1
done
[ -n "$victim" ] || { echo "FAIL: no worker ever held a lease"; cat "$log"; exit 1; }
kill -9 "$victim"
echo "  SIGKILLed worker pid $victim mid-lease"

# The sweep must still run to completion via crash migration.
status=""
for _ in $(seq 1 600); do
    body=$(curl -sf "http://$addr/sweeps/$sweep_id" || true)
    status=$(printf '%s' "$body" | grep -oE '"status":"[a-z]+"' | head -n 1 | cut -d'"' -f4)
    [ "$status" = "done" ] && break
    if [ "$status" = "failed" ] || [ "$status" = "shed" ]; then
        echo "FAIL: sweep ended as $status: $body"
        cat "$log"
        exit 1
    fi
    sleep 0.2
done
[ "$status" = "done" ] || { echo "FAIL: sweep never finished (last: $status)"; cat "$log"; exit 1; }
echo "  sweep finished despite the kill"

metrics=$(curl -sf "http://$addr/metrics" || true)
if printf '%s' "$metrics" | grep -q 'sweepd\.cells\.migrated'; then
    echo "  crash migration confirmed in /metrics"
else
    echo "  note: kill landed between leases (no migration recorded); artifacts still checked"
fi

curl -sf -X POST "http://$addr/shutdown" >/dev/null
drained=0
wait "$DAEMON_PID" || drained=$?
DAEMON_PID=""
if [ "$drained" -ne 0 ]; then
    echo "FAIL: sweepd drained with exit $drained, expected 0 (all sweeps finished)"
    cat "$log"
    exit 1
fi

echo "== sweepd chaos: compare digests =="
chaos_out="$state/sweep-$sweep_id/results/faults.json"
[ -s "$chaos_out" ] || { echo "FAIL: chaos sweep produced no results/faults.json"; exit 1; }
if ! cmp "$ref" "$chaos_out"; then
    echo "FAIL: chaos-run results differ from the uninterrupted reference"
    exit 1
fi
for side in md; do
    a="$work/reference/results/faults.$side"
    b="$state/sweep-$sweep_id/results/faults.$side"
    if [ -f "$a" ] && ! cmp "$a" "$b"; then
        echo "FAIL: chaos-run results/faults.$side differs from the reference"
        exit 1
    fi
done
echo "PASS: chaos-run artifacts are byte-identical to the reference"
