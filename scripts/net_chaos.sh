#!/usr/bin/env bash
# Distributed-fleet network chaos soak for sweepd's TCP remote workers.
#
# Proves the distributed-sweep robustness claims end to end against the
# real binaries:
#
#  1. a reference `faults` sweep runs uninterrupted on a single host;
#  2. a remote-only fleet (three workers dialing over TCP) runs the same
#     sweep while the coordinator's deterministic netem injector drops,
#     delays, duplicates, and corrupts frames — including one hard
#     partition that black-holes worker 1 mid-sweep — and one worker is
#     `kill -9`ed while it demonstrably holds a cell lease. The sweep
#     must finish, /metrics must record crash migration, and the
#     artifacts must be byte-identical to the reference;
#  3. the same fleet topology with an *empty* netem scenario must also
#     be a byte-exact no-op (the injector layer is pass-through when no
#     net* directive names a stream).
#
# Usage: scripts/net_chaos.sh [path-to-metanmp-experiments] [path-to-sweepd]
set -euo pipefail

BIN=${1:-./target/release/metanmp-experiments}
BIN=$(readlink -f "$BIN")
SWEEPD=${2:-./target/release/sweepd}
SWEEPD=$(readlink -f "$SWEEPD")
SEED=7

work=$(mktemp -d "${TMPDIR:-/tmp}/metanmp-netchaos.XXXXXX")
DAEMON_PID=""
WORKER_PIDS=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    for w in $WORKER_PIDS; do kill -9 "$w" 2>/dev/null || true; done
    rm -rf "$work"
}
trap cleanup EXIT

echo "== reference: uninterrupted single-host run =="
mkdir -p "$work/reference"
(cd "$work/reference" && "$BIN" faults --seed "$SEED")
ref="$work/reference/results/faults.json"
[ -s "$ref" ] || { echo "FAIL: reference produced no results/faults.json"; exit 1; }

# Starts a daemon with the given state dir and netem scenario; sets
# DAEMON_PID and the globals `addr` (control plane) / `waddr` (worker
# listener). Remote-only fleet: zero local slots. `--fleet-floor 0`
# disables degradation shedding: the chaos deliberately creates windows
# where every worker is dead or redialing at once, and this soak asserts
# completion, not shedding (shedding has its own tests).
start_daemon() {
    local state=$1 scenario=$2 log=$3
    "$SWEEPD" --listen 127.0.0.1:0 --worker-listen 127.0.0.1:0 \
        --worker-cmd "$BIN" --workers 0 --state-dir "$state" \
        --heartbeat-ms 25 --heartbeat-deadline-ms 1000 \
        --cell-timeout 10 --retry-budget 4 --ckpt-interval 64 \
        --fleet-floor 0 --netem "$scenario" 2>"$log" &
    DAEMON_PID=$!
    addr="" waddr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^sweepd: listening on //p' "$log" | head -n 1)
        waddr=$(sed -n 's/^sweepd: workers on //p' "$log" | head -n 1)
        [ -n "$addr" ] && [ -n "$waddr" ] && break
        kill -0 "$DAEMON_PID" 2>/dev/null || {
            echo "FAIL: sweepd died on startup"; cat "$log"; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] && [ -n "$waddr" ] || {
        echo "FAIL: sweepd never reported its addresses"; cat "$log"; exit 1; }
    echo "  daemon up: control $addr, workers $waddr (pid $DAEMON_PID)"
}

# Launches one remote worker dialing $waddr; appends its pid to
# WORKER_PIDS. Each worker's hello carries its pid, which /healthz
# reports per slot, so a leased slot maps back to an OS pid.
start_worker() {
    local log=$1
    "$BIN" --connect "$waddr" --heartbeat-ms 25 2>"$log" &
    WORKER_PIDS="$WORKER_PIDS $!"
    echo "  worker pid $! dialing $waddr"
    disown $! # suppress job-control noise when the chaos kills it
}

submit() {
    local manifest=$1
    local reply
    reply=$(curl -sf -X POST "http://$addr/sweeps" -d "$manifest")
    case "$reply" in
        '{"id":'*) printf '%s' "$reply" | grep -oE '[0-9]+' ;;
        *) echo "FAIL: POST /sweeps returned: $reply" >&2; exit 1 ;;
    esac
}

wait_status() {
    local id=$1 want=$2 tries=$3 log=$4
    local status=""
    for _ in $(seq 1 "$tries"); do
        local body
        body=$(curl -sf "http://$addr/sweeps/$id" || true)
        status=$(printf '%s' "$body" | grep -oE '"status":"[a-z]+"' | head -n 1 | cut -d'"' -f4 || true)
        [ "$status" = "$want" ] && return 0
        if [ "$status" = "failed" ] || [ "$status" = "shed" ]; then
            echo "FAIL: sweep $id ended as $status: $body"; cat "$log"; exit 1
        fi
        sleep 0.2
    done
    echo "FAIL: sweep $id never reached $want (last: $status)"; cat "$log"; exit 1
}

# ---------------------------------------------------------------------------
# Phase 1: scripted network chaos + kill -9 of a leased worker.
#
# Streams are numbered in registration order, so worker 1 rides stream 0
# (lossy, then hard-partitioned ~1s in: at 40 heartbeats/s the window
# opens around ingress frame 40 and never closes), worker 2 stream 1
# (delay + duplication), worker 3 stream 2 (rare corruption). Once the
# partition opens, no frame worker 1 sends is ever delivered, so a held
# or subsequently granted lease *must* expire and migrate — the
# migration assert below is deterministic, not a race.
# ---------------------------------------------------------------------------
echo "== fleet chaos: netem (drop/delay/dup/corrupt/partition) + kill -9 =="
scenario="$work/chaos.chs1"
cat >"$scenario" <<'EOF'
CHS1
netdrop 0 20
netpart 0 40 1000000000
netdelay 1 50 2
netdup 1 10
netcorrupt 2 2
EOF
state="$work/chaos-state"
log="$work/chaos-sweepd.log"
start_daemon "$state" "$scenario" "$log"

# Filler sweeps (high priority, no finalize) keep the fleet busy while
# the chaos plays out; the measured seed-7 sweep runs at priority 0, so
# its cells land on the already-degraded fleet.
for i in $(seq 1 20); do
    submit "{\"experiment\":\"faults\",\"seed\":$((100 + i)),\"priority\":5,\"finalize\":false}" >/dev/null
done
sweep_id=$(submit "{\"experiment\":\"faults\",\"seed\":$SEED}")
echo "  measured sweep id $sweep_id (plus 20 filler sweeps)"

start_worker "$work/chaos-w1.log"   # stream 0: drop + partition
start_worker "$work/chaos-w2.log"   # stream 1: delay + dup (kill -9 victim)
start_worker "$work/chaos-w3.log"   # stream 2: corrupt

# Kill a worker the moment /healthz shows its slot holding a lease;
# the slot's pid field is the one the worker registered with.
victim=""
for _ in $(seq 1 300); do
    health=$(curl -sf "http://$addr/healthz" || true)
    victim=$(printf '%s' "$health" \
        | grep -oE '"pid":[0-9]+,"restarts":[0-9]+,"lease":"[^"]+"' \
        | head -n 1 | grep -oE '"pid":[0-9]+' | cut -d: -f2 || true)
    [ -n "$victim" ] && break
    sleep 0.05
done
[ -n "$victim" ] || { echo "FAIL: no remote worker ever held a lease"; cat "$log"; exit 1; }
kill -9 "$victim"
echo "  SIGKILLed remote worker pid $victim while it held a lease"

wait_status "$sweep_id" done 600 "$log"
echo "  measured sweep finished despite partition, chaos, and the kill"

metrics=$(curl -sf "http://$addr/metrics" || true)
if ! printf '%s' "$metrics" | grep -q 'sweepd\.cells\.migrated'; then
    echo "FAIL: partition + kill produced no crash migration"
    printf '%s\n' "$metrics"; cat "$log"; exit 1
fi
echo "  crash migration confirmed in /metrics"

curl -sf -X POST "http://$addr/shutdown" >/dev/null
drained=0
wait "$DAEMON_PID" || drained=$?
DAEMON_PID=""
if [ "$drained" -ne 0 ]; then
    echo "FAIL: sweepd drained with exit $drained, expected 0"
    cat "$log"; exit 1
fi

chaos_out="$state/sweep-$sweep_id/results/faults.json"
[ -s "$chaos_out" ] || { echo "FAIL: chaos sweep produced no results/faults.json"; exit 1; }
if ! cmp "$ref" "$chaos_out"; then
    echo "FAIL: chaos-run results differ from the uninterrupted reference"
    exit 1
fi
echo "PASS: chaos-run artifacts are byte-identical to the reference"

# ---------------------------------------------------------------------------
# Phase 2: an empty netem scenario must be a byte-exact no-op.
# ---------------------------------------------------------------------------
echo "== fleet control: empty netem scenario is a no-op =="
printf 'CHS1\n' >"$work/empty.chs1"
state="$work/noop-state"
log="$work/noop-sweepd.log"
start_daemon "$state" "$work/empty.chs1" "$log"
sweep_id=$(submit "{\"experiment\":\"faults\",\"seed\":$SEED}")
start_worker "$work/noop-w1.log"
wait_status "$sweep_id" done 300 "$log"

curl -sf -X POST "http://$addr/shutdown" >/dev/null
drained=0
wait "$DAEMON_PID" || drained=$?
DAEMON_PID=""
[ "$drained" -eq 0 ] || { echo "FAIL: no-op daemon drained with exit $drained"; cat "$log"; exit 1; }

noop_out="$state/sweep-$sweep_id/results/faults.json"
[ -s "$noop_out" ] || { echo "FAIL: no-op sweep produced no results/faults.json"; exit 1; }
if ! cmp "$ref" "$noop_out"; then
    echo "FAIL: empty-netem run differs from the reference"
    exit 1
fi
echo "PASS: empty netem scenario is byte-exact against the reference"
