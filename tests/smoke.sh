#!/usr/bin/env bash
# The smoke cases that need real processes: gpmd daemons SIGKILLed,
# drained with SIGTERM and restarted over their directories, and two
# benches run as built. ctest runs each case as LABEL.CASE
# (gpm_smoke_test in tests/CMakeLists.txt); what a gtest can check
# in-process is checked there instead. The cases, and the binaries
# each takes:
#
#   gpmd_failover GPMD GPMCTL   SIGKILL failover over a shared cache
#   gpmd_restart GPMD GPMCTL    profile store, result cache, /healthz
#   gpmd_faults GPMD GPMCTL     GPMD_FAULT against a retrying gpmctl
#   manycore_policies BENCH     bench_manycore_policies NDJSON
#   service_throughput BENCH    bench_service_throughput phases
#
# Usage: smoke.sh CASE PROFILE_STORE WORK_DIR BINARY...
set -euo pipefail

CASE=$1 STORE=$2 WORK=$3
shift 3
SCALE=0.03

rm -rf "$WORK"
mkdir -p "$WORK" "$STORE"
cd "$WORK"
PIDS=()
trap 'kill -9 "${PIDS[@]}" 2>/dev/null || true' EXIT

fail() {
    echo "$CASE: $*" >&2
    exit 1
}

# Start a daemon logging to $1 with the flags that follow; its pid
# lands in PID.
start_gpmd() {
    local log=$1
    shift
    "$GPMD" --port 0 --scale "$SCALE" "$@" >"$log" 2>&1 &
    PID=$!
    PIDS+=("$PID")
}

# Echo the port the daemon ($1 = pid, $2 = log) prints after
# "gpmd: $3 HOST:" ($3 = "listening on" or "metrics on").
await_port() {
    local port="" i
    for i in $(seq 1 600); do
        port=$(sed -n "s/^gpmd: $3 .*:\([0-9]*\)\$/\1/p" "$2")
        [ -n "$port" ] && { echo "$port"; return 0; }
        kill -0 "$1" 2>/dev/null ||
            { echo "gpmd exited early:" >&2; cat "$2" >&2; return 1; }
        sleep 0.2
    done
    echo "gpmd never printed '$3':" >&2
    cat "$2" >&2
    return 1
}

# SIGTERM ($1 = pid, $2 = log) must drain and exit 0 with a clean
# shutdown line.
stop_gpmd() {
    local rc=0
    kill -TERM "$1"
    wait "$1" || rc=$?
    [ "$rc" -eq 0 ] || { cat "$2" >&2; fail "gpmd exit code $rc"; }
    grep -q 'gpmd: shutdown complete' "$2" ||
        { cat "$2" >&2; fail "no clean shutdown"; }
}

# gpmctl against one daemon ($1 = port).
ctl() {
    local port=$1
    shift
    "$GPMCTL" --port "$port" "$@"
}

# The scenario object running MaxBIPS over the benchmarks of the
# comma list $1 at budget $2.
maxbips() {
    printf '{"combo":["%s"],"policy":"MaxBIPS","budget":%s}' \
        "${1//,/\",\"}" "$2"
}

# Poll stats ($1 = port) until the background prewarm has every
# suite profile Ready: the build counters are settled only then.
await_profiles() {
    local i
    for i in $(seq 1 600); do
        ctl "$1" stats 2>/dev/null | grep -q '"profileReady":12' &&
            return 0
        sleep 0.5
    done
    fail "profiles never became ready"
}

# Raw-TCP HTTP/1.0 GET ($1 = port, $2 = path): the metrics surface
# must answer without curl on the box.
http_get() {
    exec 3<>"/dev/tcp/127.0.0.1/$1"
    printf 'GET %s HTTP/1.0\r\n\r\n' "$2" >&3
    timeout 30 cat <&3
    exec 3<&- 3>&-
}

# Four budgets placed by gpmctl --host on their ring owners; SIGKILL
# a daemon that computed at least one, and every resubmit
# (--retries 8) must exit 0 "cached":true: gpmctl moves down the
# key's ranking to the survivor, which serves the dead daemon's
# results from the shared disk tier, then drains on SIGTERM.
gpmd_failover() {
    GPMD=$1 GPMCTL=$2
    local budgets="0.60 0.66 0.72 0.78" pids=() ports=() k b
    mkdir -p cache
    for k in 1 2; do
        start_gpmd "gpmd$k.log" --profile-cache-dir "$STORE" \
            --cache-dir cache
        pids+=("$PID")
    done
    for k in 1 2; do
        ports+=("$(await_port "${pids[k - 1]}" "gpmd$k.log" \
            "listening on")")
    done
    local hosts="127.0.0.1:${ports[0]},127.0.0.1:${ports[1]}"
    submit() { # $1 = budget, then extra gpmctl flags
        local budget=$1
        shift
        "$GPMCTL" --host "$hosts" "$@" submit \
            --json "$(maxbips mcf,crafty "$budget")"
    }

    for b in $budgets; do
        submit "$b" | grep -q '"ok":true' ||
            fail "submit budget=$b failed"
    done

    # The victim is a daemon that computed at least one budget.
    local victim="" lost
    for k in 1 2; do
        lost=$(ctl "${ports[k - 1]}" stats 2>/dev/null |
            sed -n 's/.*"cacheMisses":\([0-9]*\).*/\1/p')
        if [ "${lost:-0}" -gt 0 ]; then
            victim=$k
            break
        fi
    done
    [ -n "$victim" ] || fail "no daemon served a submit"
    local s=$((2 - victim))
    kill -9 "${pids[victim - 1]}"
    wait "${pids[victim - 1]}" 2>/dev/null || true

    local out
    for b in $budgets; do
        out=$(submit "$b" --retries 8) ||
            fail "resubmit budget=$b exited non-zero: $out"
        echo "$out" | grep -q '"cached":true' ||
            fail "resubmit budget=$b not served cached: $out"
    done

    # The victim's budgets came off the survivor's disk tier.
    ctl "${ports[s]}" stats 2>/dev/null |
        grep -q "\"diskHits\":$lost[,}]" ||
        fail "survivor did not serve $lost disk hits"
    stop_gpmd "${pids[s]}" "gpmd$((s + 1)).log"
}

gpmd_restart() {
    GPMD=$1 GPMCTL=$2
    local store=$WORK/store port mport body stats out1 out2
    local submit=(submit --json "$(maxbips mcf,crafty 0.8)")
    mkdir -p cache

    # Cold start over an empty store builds and populates it; the
    # metrics port answers /healthz on the side.
    start_gpmd gpmd.log --profile-cache-dir "$store" --cache-dir cache \
        --metrics-port 0
    port=$(await_port "$PID" gpmd.log "listening on")
    mport=$(await_port "$PID" gpmd.log "metrics on")
    body=$(http_get "$mport" /healthz)
    echo "$body" | grep -q '^HTTP/1.0 200 ' || fail "healthz: $body"
    echo "$body" | grep -q '^ok$' || fail "healthz body: $body"
    await_profiles "$port"
    stats=$(ctl "$port" stats)
    echo "$stats" | grep -q '"profileBuilds":12' ||
        fail "cold start did not build the suite: $stats"
    [ "$(ls "$store"/*.gpmp 2>/dev/null | wc -l)" -eq 12 ] ||
        fail "store not populated: $(ls "$store")"
    out1=$(ctl "$port" "${submit[@]}")
    stop_gpmd "$PID" gpmd.log

    # A restart over the warm store builds nothing and computes the
    # same payload (no --cache-dir: the result is recomputed).
    start_gpmd gpmd.log --profile-cache-dir "$store"
    port=$(await_port "$PID" gpmd.log "listening on")
    await_profiles "$port"
    stats=$(ctl "$port" stats)
    echo "$stats" | grep -q '"profileBuilds":0' ||
        fail "restart rebuilt profiles: $stats"
    echo "$stats" | grep -q '"profileDiskHits":12' ||
        fail "restart did not hit the store: $stats"
    out2=$(ctl "$port" "${submit[@]}")
    [ "$out1" = "$out2" ] ||
        fail "payload changed across restart: $out1 vs $out2"
    stop_gpmd "$PID" gpmd.log

    # A restart over the same --cache-dir serves the first run's
    # scenario from the disk tier. The 1-byte budget does not purge
    # restored entries at startup (it is enforced on writes), so the
    # next computed scenario evicts.
    start_gpmd gpmd.log --profile-cache-dir "$store" --cache-dir cache \
        --cache-disk-bytes 1
    port=$(await_port "$PID" gpmd.log "listening on")
    ctl "$port" "${submit[@]}" | grep -q '"cached":true' ||
        fail "disk tier did not serve the scenario"
    ctl "$port" submit --json "$(maxbips mcf 0.65)" >/dev/null
    stats=$(ctl "$port" stats)
    echo "$stats" | grep -q '"diskHits":1' ||
        fail "no disk hit counted: $stats"
    echo "$stats" | grep -q '"diskEvictions":[1-9]' ||
        fail "no disk eviction at budget: $stats"
    stop_gpmd "$PID" gpmd.log
}

# worker-throw crashes real workers (each keeps serving),
# conn-stall slows every request, read-drop swallows a fraction of
# request lines inside the reactor; gpmctl's seeded backoff retries,
# with a per-attempt timeout so a dropped request does not hang an
# attempt, must converge inside its deadline anyway.
#
# Each dropped request costs one per-attempt timeout, so the
# timeouts are the slowest answered attempt plus a margin. Answered
# attempts took at most 72 ms in the standard and the TSan build,
# except a submit over an empty store, which waits for the suite
# build: 0.85 s in the standard build. ping_ms and submit_ms are
# about 14x and 2.4x those. Under TSan that build takes ~14 s; such
# a submit times out and retries until it ends, inside the deadline.
gpmd_faults() {
    GPMD=$1 GPMCTL=$2
    local port stats budget ping_ms=1000 submit_ms=2000
    GPMD_FAULT="worker-throw:0.8,conn-stall:1:20,read-drop:0.3,seed:5" \
        start_gpmd gpmd.log --profile-cache-dir "$STORE"
    port=$(await_port "$PID" gpmd.log "listening on")
    grep -q 'FAULT INJECTION ARMED' gpmd.log ||
        { cat gpmd.log >&2; fail "faults not armed"; }

    ctl "$port" --retries 10 --retry-base-ms 20 --timeout-ms "$ping_ms" \
        --seed 6 ping | grep -q '"pong":true' ||
        fail "ping did not survive conn-stall"

    # Three distinct scenarios (all misses) give worker-throw enough
    # rolls that at least one crash is near-certain, and each
    # retrying submit must still end in the real sweep result.
    for budget in 0.8 0.7 0.75; do
        ctl "$port" --retries 30 --retry-base-ms 20 \
            --timeout-ms "$submit_ms" --deadline 60000 --seed 7 \
            submit --json "$(maxbips mcf "$budget")" |
            grep -q '"ok":true' ||
            fail "retrying submit did not converge"
    done

    # The daemon contained every crash: workers restored, crashes
    # counted, and it still serves and drains.
    stats=$(ctl "$port" --retries 10 --retry-base-ms 20 \
        --timeout-ms "$ping_ms" --seed 8 stats)
    echo "$stats" | grep -q '"faultsArmed":true' || fail "stats: $stats"
    echo "$stats" | grep -q '"workersAlive":2' ||
        fail "workers not restored: $stats"
    echo "$stats" | grep -q '"workerCrashes":[1-9]' ||
        fail "no crashes injected: $stats"
    stop_gpmd "$PID" gpmd.log
}

# One timed iteration at 64 cores. The p99 decision latencies are
# printed, not gated: a shared host is too noisy for a microsecond
# bound (docs/PERF.md has the quiet-host numbers).
manycore_policies() {
    local line
    GPM_MANYCORE_N=64 GPM_MANYCORE_ITERS=1 GPM_SCALE="$SCALE" \
        GPM_PROFILE_CACHE_DIR="$STORE" GPM_BENCH_JSON=bench.json \
        "$1" >/dev/null || fail "bench_manycore_policies failed"
    [ "$(wc -l <bench.json)" -eq 3 ] ||
        fail "expected 3 NDJSON records: $(cat bench.json)"
    while IFS= read -r line; do
        case $line in
        '{ "bench": "manycore_policies",'*'"p99_us":'*'}') ;;
        *) fail "malformed NDJSON record: $line" ;;
        esac
    done <bench.json
    echo "p99 decision latencies (informational):"
    sed 's/.*"policy": "\([^"]*\)".*"p99_us": \([0-9.]*\).*/  \1: \2 us/' \
        bench.json
}

# Cache phases plus the transport comparison at small scale. The
# bench itself fails any phase that served a request error, a cold
# phase that served a cache hit and a warm phase that served
# anything else, and raises its own fd limit; its speedup gate
# applies only at >= 5000 connections.
service_throughput() {
    GPM_SCALE="$SCALE" GPM_PROFILE_CACHE_DIR="$STORE" \
        GPM_BENCH_JSON=bench.json \
        GPM_BENCH_CLIENTS=2 GPM_BENCH_SCENARIOS=4 \
        GPM_BENCH_TPC_CONNS=40 GPM_BENCH_REACTOR_CONNS=200 \
        GPM_BENCH_CONN_SCENARIOS=4 GPM_BENCH_CHURN_CONNS=100 \
        "$1" >/dev/null || fail "bench_service_throughput failed"
    [ "$(wc -l <bench.json)" -eq 6 ] ||
        fail "expected 6 NDJSON records: $(cat bench.json)"
    grep -q '"phase": "reactor-sustained"' bench.json ||
        fail "no reactor-sustained record: $(cat bench.json)"
}

case $CASE in
gpmd_failover | gpmd_restart | gpmd_faults | manycore_policies | \
    service_throughput) "$CASE" "$@" ;;
*) fail "unknown case" ;;
esac
cd /
rm -rf "$WORK"
echo "$CASE passed"
