#!/usr/bin/env bash
# Tier-1 verification: the standard build (with GPM_WERROR=ON, so
# library warnings fail the stage) + full test suite, a
# policy-kernel smoke (many-core bench at 64 cores emitting
# well-formed NDJSON; p99 latencies reported, not gated), a gpmd
# end-to-end smoke (ephemeral port, gpmctl ping + submit + cluster
# submit + batch submit, graceful SIGTERM shutdown, then a restart
# over the same --cache-dir asserting disk-tier persistence and LRU
# eviction), a
# profile-store smoke (cold start populates --profile-cache-dir;
# a restart over the warm store must perform zero profile builds
# and serve bitwise-identical submit payloads), a chaos smoke (fault-injected daemon: worker crashes + stalled
# connections, gpmctl retries converging under a deadline,
# supervisor-restored workers, clean drain — see docs/ROBUSTNESS.md),
# a deadline smoke (worker-stall outliving a request deadline must
# cancel the sweep mid-computation), an overload smoke (a 1-worker
# daemon under a pipelined burst must shed with structured
# rejected_overload + retryAfterMs, serve at least one request a
# ladder rung down, and drain cleanly), a metrics smoke (raw-TCP
# GETs against --metrics-port: /healthz answers ok, /metrics is
# Prometheus text carrying the service counters — no curl
# dependency), a throughput smoke (the serving-path bench at small
# scale under a raised fd limit: every transport phase must finish
# with zero request errors), then a ThreadSanitizer build
# running the concurrency-sensitive tests (thread pool + sweep
# determinism), the same smokes and the `process` ctest label (the
# SIGKILL failover across gpmd processes) under TSan. The TSan
# stage can be skipped with GPM_SKIP_TSAN=1 (e.g. on toolchains
# without libtsan).
#
# Usage: scripts/tier1.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

# Drive one gpmd build end to end. Both builds share one profile
# store (its entry keys are build-type independent), so the TSan
# daemons do not re-profile.
SMOKE_SCALE=0.03
SMOKE_STORE="$PWD/$BUILD/gpm_profiles_smoke"

# Wait until the daemon ($1 = pid, $2 = log) prints
# "gpmd: listening on HOST:PORT" and echo the port.
wait_gpmd_port() {
    local pid=$1 log=$2 port="" i
    for i in $(seq 1 600); do
        port=$(sed -n 's/^gpmd: listening on .*:\([0-9]*\)$/\1/p' \
            "$log")
        [ -n "$port" ] && { echo "$port"; return 0; }
        kill -0 "$pid" 2>/dev/null ||
            { echo "gpmd exited early:" >&2; cat "$log" >&2
              return 1; }
        sleep 0.5
    done
    echo "gpmd never listened:" >&2
    cat "$log" >&2
    return 1
}

# Echo the HTTP metrics port once the daemon ($1 = pid, $2 = log)
# prints "gpmd: metrics on HOST:PORT".
wait_gpmd_metrics_port() {
    local pid=$1 log=$2 port="" i
    for i in $(seq 1 600); do
        port=$(sed -n 's/^gpmd: metrics on .*:\([0-9]*\)$/\1/p' \
            "$log")
        [ -n "$port" ] && { echo "$port"; return 0; }
        kill -0 "$pid" 2>/dev/null ||
            { echo "gpmd exited early:" >&2; cat "$log" >&2
              return 1; }
        sleep 0.5
    done
    echo "gpmd never exposed metrics:" >&2
    cat "$log" >&2
    return 1
}

# Raw-TCP HTTP/1.0 GET ($1 = port, $2 = path) over /dev/tcp — the
# metrics surface must be scrapeable without curl on the box.
http_get() {
    local port=$1 path=$2
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf 'GET %s HTTP/1.0\r\n\r\n' "$path" >&3
    timeout 30 cat <&3
    exec 3<&- 3>&-
}

# Graceful shutdown ($1 = pid, $2 = log): SIGTERM must drain and
# exit 0 with a clean shutdown line.
stop_gpmd() {
    local pid=$1 log=$2 rc=0
    kill -TERM "$pid"
    wait "$pid" || rc=$?
    [ "$rc" -eq 0 ] ||
        { echo "gpmd exit code $rc:"; cat "$log"; return 1; }
    grep -q 'gpmd: shutdown complete' "$log" ||
        { echo "no clean shutdown:"; cat "$log"; return 1; }
}

# Poll stats until the background prewarm has every suite profile
# Ready ($1 = gpmctl, $2 = port): submits would work earlier (they
# wait per entry), but build-counter assertions need a settled
# library.
wait_profiles_ready() {
    local gpmctl=$1 port=$2 i
    for i in $(seq 1 600); do
        "$gpmctl" --port "$port" stats 2>/dev/null |
            grep -q '"profileReady":12' && return 0
        sleep 0.5
    done
    echo "profiles never became ready" >&2
    return 1
}

# Cold start over an empty --profile-cache-dir must build and
# populate the store; a restart over the warm store must perform
# zero detailed-core builds (profileBuilds:0, profileDiskHits:12)
# and serve a bitwise-identical payload for the same scenario.
gpmd_profile_smoke() {
    local bdir=$1
    local gpmd="$bdir/src/service/gpmd"
    local gpmctl="$bdir/src/service/gpmctl"
    local log store_dir
    log=$(mktemp)
    store_dir=$(mktemp -d)

    "$gpmd" --port 0 --scale "$SMOKE_SCALE" \
        --profile-cache-dir "$store_dir" >"$log" 2>&1 &
    local pid=$!
    trap 'kill "$pid" 2>/dev/null || true' RETURN

    local port
    port=$(wait_gpmd_port "$pid" "$log") || return 1
    wait_profiles_ready "$gpmctl" "$port" || return 1

    local stats
    stats=$("$gpmctl" --port "$port" stats)
    echo "$stats" | grep -q '"profileBuilds":12' ||
        { echo "cold start did not build the suite: $stats"
          return 1; }
    [ "$(ls "$store_dir"/*.gpmp 2>/dev/null | wc -l)" -eq 12 ] ||
        { echo "store not populated:"; ls "$store_dir"; return 1; }

    local out1
    out1=$("$gpmctl" --port "$port" submit \
        --combo mcf,crafty --policy MaxBIPS --budget 0.8)
    stop_gpmd "$pid" "$log" || return 1

    # Restart over the warm store: zero rebuilds, identical payload.
    : >"$log"
    "$gpmd" --port 0 --scale "$SMOKE_SCALE" \
        --profile-cache-dir "$store_dir" >"$log" 2>&1 &
    pid=$!
    port=$(wait_gpmd_port "$pid" "$log") || return 1
    wait_profiles_ready "$gpmctl" "$port" || return 1

    stats=$("$gpmctl" --port "$port" stats)
    echo "$stats" | grep -q '"profileBuilds":0' ||
        { echo "restart rebuilt profiles: $stats"; return 1; }
    echo "$stats" | grep -q '"profileDiskHits":12' ||
        { echo "restart did not hit the store: $stats"; return 1; }

    local out2
    out2=$("$gpmctl" --port "$port" submit \
        --combo mcf,crafty --policy MaxBIPS --budget 0.8)
    [ "$out1" = "$out2" ] ||
        { echo "payload changed across restart:"
          echo "  first:   $out1"; echo "  restart: $out2"
          return 1; }

    stop_gpmd "$pid" "$log" || return 1
    rm -rf "$store_dir"
    rm -f "$log"
}

gpmd_smoke() {
    local bdir=$1
    local gpmd="$bdir/src/service/gpmd"
    local gpmctl="$bdir/src/service/gpmctl"
    local log cache_dir batch
    log=$(mktemp)
    cache_dir=$(mktemp -d)
    batch=$(mktemp)

    "$gpmd" --port 0 --scale "$SMOKE_SCALE" \
        --profile-cache-dir "$SMOKE_STORE" \
        --cache-dir "$cache_dir" >"$log" 2>&1 &
    local pid=$!
    trap 'kill "$pid" 2>/dev/null || true' RETURN

    local port
    port=$(wait_gpmd_port "$pid" "$log") || return 1

    "$gpmctl" --port "$port" ping ||
        { echo "ping failed"; return 1; }
    "$gpmctl" --port "$port" submit \
        --combo mcf,crafty --policy MaxBIPS --budget 0.8 \
        >/dev/null ||
        { echo "MaxBIPS submit failed"; return 1; }
    # The many-core approximate engine is reachable end to end: a
    # WaterFill submit must produce a real sweep result.
    "$gpmctl" --port "$port" submit \
        --combo mcf,crafty --policy WaterFill --budget 0.8 |
        grep -q '"ok":true' ||
        { echo "WaterFill submit failed"; return 1; }
    # The repeat must be served from cache; assert via stats.
    "$gpmctl" --port "$port" submit \
        --combo mcf,crafty --policy MaxBIPS --budget 0.8 |
        grep -q '"cached":true' ||
        { echo "repeat submit not served from cache"; return 1; }
    "$gpmctl" --port "$port" stats |
        grep -q '"cacheHits":1' ||
        { echo "cache hit not counted"; return 1; }

    # The cluster arbiter is reachable end to end: a two-chip
    # hierarchical scenario sweeps, the resubmit comes back from the
    # result cache, and the cluster counters tick.
    "$gpmctl" --port "$port" submit \
        --cluster-chip mcf,crafty:MaxBIPS \
        --cluster-chip gcc,mesa:WaterFill \
        --policy GreedyTurbo --epochs 2 --epoch-us 1000 \
        --levels 8 --budget 0.8 |
        grep -q '"ok":true' ||
        { echo "cluster submit failed"; return 1; }
    "$gpmctl" --port "$port" submit \
        --cluster-chip mcf,crafty:MaxBIPS \
        --cluster-chip gcc,mesa:WaterFill \
        --policy GreedyTurbo --epochs 2 --epoch-us 1000 \
        --levels 8 --budget 0.8 |
        grep -q '"cached":true' ||
        { echo "cluster resubmit not served from cache"; return 1; }
    "$gpmctl" --port "$port" stats |
        grep -q '"clusterRequests":1' ||
        { echo "cluster request not counted"; return 1; }

    # Batch submit: one request, one NDJSON result line per scenario
    # in input order; exit 0 means every scenario succeeded. The
    # first entry repeats the earlier submit, so it comes back
    # cached.
    cat >"$batch" <<'EOF'
{"combo": ["mcf", "crafty"], "policy": "MaxBIPS", "budget": 0.8}
{"combo": ["mcf"], "policy": "MaxBIPS", "budget": 0.7}
{"combo": ["mcf"], "policy": "MaxBIPS", "budget": 0.9}
EOF
    local out
    out=$("$gpmctl" --port "$port" submit-batch @"$batch")
    [ "$(echo "$out" | wc -l)" -eq 3 ] ||
        { echo "batch: expected 3 result lines:"; echo "$out"
          return 1; }
    echo "$out" | head -1 | grep -q '"cached":true' ||
        { echo "batch: first entry not served from cache:"
          echo "$out"; return 1; }
    "$gpmctl" --port "$port" stats |
        grep -q '"batchRequests":1' ||
        { echo "batch request not counted"; return 1; }

    stop_gpmd "$pid" "$log" || return 1

    # Restart over the same --cache-dir: the disk tier must serve
    # the earlier scenario without recomputation. The 1-byte disk
    # budget does not purge restored entries at startup (budget is
    # enforced on writes), but the next computed scenario triggers
    # LRU eviction.
    : >"$log"
    "$gpmd" --port 0 --scale "$SMOKE_SCALE" \
        --profile-cache-dir "$SMOKE_STORE" \
        --cache-dir "$cache_dir" --cache-disk-bytes 1 \
        >"$log" 2>&1 &
    pid=$!
    port=$(wait_gpmd_port "$pid" "$log") || return 1

    "$gpmctl" --port "$port" submit \
        --combo mcf,crafty --policy MaxBIPS --budget 0.8 |
        grep -q '"cached":true' ||
        { echo "restart: disk tier did not serve the scenario"
          return 1; }
    "$gpmctl" --port "$port" submit \
        --combo mcf --policy MaxBIPS --budget 0.65 >/dev/null
    local stats
    stats=$("$gpmctl" --port "$port" stats)
    echo "$stats" | grep -q '"diskHits":1' ||
        { echo "restart: no disk hit counted: $stats"; return 1; }
    echo "$stats" | grep -q '"diskEvictions":[1-9]' ||
        { echo "restart: no disk eviction at budget: $stats"
          return 1; }

    stop_gpmd "$pid" "$log" || return 1
    rm -rf "$cache_dir"
    rm -f "$log" "$batch"
}

# Policy-kernel smoke: the many-core bench at 64 cores, one timed
# iteration, must emit one well-formed NDJSON record per approximate
# policy into its bench log. The p99 decision latencies are echoed
# for trend-watching but NOT gated — CI boxes are too noisy for a
# hard microsecond bound (the recorded BENCH_sweep.json numbers from
# quiet machines are the reference; see docs/PERF.md).
policy_kernel_smoke() {
    local bdir=$1
    local out
    out=$(mktemp)
    GPM_MANYCORE_N=64 GPM_MANYCORE_ITERS=1 \
        GPM_SCALE="$SMOKE_SCALE" \
        GPM_PROFILE_CACHE_DIR="$SMOKE_STORE" \
        GPM_BENCH_JSON="$out" \
        "$bdir/bench/bench_manycore_policies" >/dev/null ||
        { echo "bench_manycore_policies failed"; return 1; }
    [ "$(wc -l <"$out")" -eq 3 ] ||
        { echo "expected 3 NDJSON records:"; cat "$out"; return 1; }
    local line
    while IFS= read -r line; do
        case $line in
        '{ "bench": "manycore_policies",'*'"p99_us":'*'}') ;;
        *) echo "malformed NDJSON record: $line"; return 1 ;;
        esac
    done <"$out"
    echo "policy-kernel p99 decision latencies (informational):"
    sed 's/.*"policy": "\([^"]*\)".*"p99_us": \([0-9.]*\).*/  \1: \2 us/' \
        "$out"
    rm -f "$out"
}

# A deterministic mid-sweep deadline: the armed worker stall (400 ms,
# probability 1) outlives the request's 100 ms deadline, so the sweep
# must cancel cooperatively between budget points and answer
# deadline_exceeded — the worker is freed without finishing the
# sweep.
gpmd_deadline() {
    local bdir=$1
    local gpmd="$bdir/src/service/gpmd"
    local gpmctl="$bdir/src/service/gpmctl"
    local log
    log=$(mktemp)

    GPMD_FAULT="worker-stall:1:400,seed:3" \
        "$gpmd" --port 0 --scale "$SMOKE_SCALE" \
        --profile-cache-dir "$SMOKE_STORE" >"$log" 2>&1 &
    local pid=$!
    trap 'kill "$pid" 2>/dev/null || true' RETURN

    local port
    port=$(wait_gpmd_port "$pid" "$log") || return 1

    # gpmctl exits 2 on the (expected) server-side error.
    local out rc=0
    out=$("$gpmctl" --port "$port" submit \
        --combo mcf --policy MaxBIPS --budget 0.8 \
        --deadline-ms 100) || rc=$?
    [ "$rc" -eq 2 ] ||
        { echo "deadline: expected exit 2, got $rc: $out"
          return 1; }
    echo "$out" | grep -q 'deadline_exceeded' ||
        { echo "deadline: wrong error: $out"; return 1; }
    "$gpmctl" --port "$port" stats |
        grep -q '"cancelledMidSweep":1' ||
        { echo "deadline: cancellation not counted"; return 1; }

    stop_gpmd "$pid" "$log" || return 1
    rm -f "$log"
}

# Drive one gpmd build through the chaos smoke: a daemon with armed
# fault points must degrade gracefully, never die. worker-throw
# crashes real workers (the supervisor respawns them), conn-stall
# slows every request, read-drop silently swallows a fraction of
# request lines inside the reactor; gpmctl's seeded backoff retries
# (with a per-attempt timeout so dropped requests do not hang an
# attempt forever) must converge inside its deadline anyway.
gpmd_chaos() {
    local bdir=$1
    local gpmd="$bdir/src/service/gpmd"
    local gpmctl="$bdir/src/service/gpmctl"
    local log
    log=$(mktemp)

    GPMD_FAULT="worker-throw:0.8,conn-stall:1:20,read-drop:0.3,seed:5" \
        "$gpmd" --port 0 --scale "$SMOKE_SCALE" \
        --profile-cache-dir "$SMOKE_STORE" >"$log" 2>&1 &
    local pid=$!
    trap 'kill "$pid" 2>/dev/null || true' RETURN

    local port
    port=$(wait_gpmd_port "$pid" "$log") || return 1
    grep -q 'FAULT INJECTION ARMED' "$log" ||
        { echo "faults not armed:"; cat "$log"; return 1; }

    # Pings survive the stalled-connection and dropped-read faults.
    "$gpmctl" --port "$port" --retries 10 --retry-base-ms 20 \
        --timeout-ms 3000 --seed 6 ping |
        grep -q '"pong":true' ||
        { echo "ping did not survive conn-stall"; return 1; }

    # Submits crash workers with probability 0.8 and lose their
    # request line with probability 0.3, yet a retrying client
    # converges well inside its deadline — and the payload it
    # finally gets is the real sweep result. Three distinct
    # scenarios (cache misses all) so the worker-throw fault gets
    # enough rolls that at least one crash is near-certain.
    local budget
    for budget in 0.8 0.7 0.75; do
        "$gpmctl" --port "$port" --retries 30 --retry-base-ms 20 \
            --timeout-ms 5000 --deadline 60000 --seed 7 submit \
            --combo mcf --policy MaxBIPS --budget "$budget" |
            grep -q '"ok":true' ||
            { echo "retrying submit did not converge"; return 1; }
    done

    # The daemon contained every crash: workers restored, crashes
    # counted, and it still serves.
    local stats
    stats=$("$gpmctl" --port "$port" --retries 10 \
        --retry-base-ms 20 --timeout-ms 3000 --seed 8 stats)
    echo "$stats" | grep -q '"faultsArmed":true' ||
        { echo "bad stats: $stats"; return 1; }
    echo "$stats" | grep -q '"workersAlive":2' ||
        { echo "workers not restored: $stats"; return 1; }
    echo "$stats" | grep -q '"workerCrashes":[1-9]' ||
        { echo "no crashes injected: $stats"; return 1; }

    # And SIGTERM still drains cleanly with faults armed.
    stop_gpmd "$pid" "$log" || return 1
    rm -f "$log"
}


# Overload smoke: a 1-worker daemon with a tiny queue, a low
# overload threshold and an armed worker stall, fed 12 pipelined
# distinct submits down ONE connection, must shed part of the burst
# with structured rejected_overload (+ retryAfterMs backoff hints),
# serve at least one admitted request a ladder rung down (the
# response carries the "degraded" marker), answer zero
# internal_errors, expose the shedOverload / degradedRequests
# counters and the sorted breaker-state lines through gpmctl stats,
# and still drain cleanly on SIGTERM.
gpmd_overload() {
    local bdir=$1
    local gpmd="$bdir/src/service/gpmd"
    local gpmctl="$bdir/src/service/gpmctl"
    local log resp
    log=$(mktemp)
    resp=$(mktemp)

    GPMD_FAULT="worker-stall:1:100,seed:11" \
        "$gpmd" --port 0 --scale "$SMOKE_SCALE" \
        --profile-cache-dir "$SMOKE_STORE" \
        --workers 1 --queue 8 --overload-degrade-depth 0.3 \
        >"$log" 2>&1 &
    local pid=$!
    trap 'kill "$pid" 2>/dev/null || true' RETURN

    local port
    port=$(wait_gpmd_port "$pid" "$log") || return 1

    # One pipelined burst: 12 distinct scenarios down one socket,
    # then exactly 12 response lines back.
    local i
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    for i in $(seq 1 12); do
        printf '{"id":"b%s","verb":"submit","scenario":{"combo":["mcf"],"policy":"MaxBIPS","budget":0.%02d}}\n' \
            "$i" $((60 + i)) >&3
    done
    timeout 120 head -n 12 <&3 >"$resp" || true
    exec 3<&- 3>&-

    [ "$(wc -l <"$resp")" -eq 12 ] ||
        { echo "overload: expected 12 responses:"; cat "$resp"
          return 1; }
    grep -q 'rejected_overload' "$resp" ||
        { echo "overload: nothing shed:"; cat "$resp"; return 1; }
    grep 'rejected_overload' "$resp" | grep -q 'retryAfterMs' ||
        { echo "overload: rejection without retry hint:"
          cat "$resp"; return 1; }
    grep -q '"degraded"' "$resp" ||
        { echo "overload: no degraded response:"; cat "$resp"
          return 1; }
    ! grep -q 'internal_error' "$resp" ||
        { echo "overload: internal errors:"; cat "$resp"
          return 1; }

    # Counters in the raw stats JSON, breaker states in the sorted
    # pretty-printed stderr lines.
    local stats
    stats=$("$gpmctl" --port "$port" stats 2>&1)
    echo "$stats" | grep -q '"shedOverload":[1-9]' ||
        { echo "overload: shedOverload not counted: $stats"
          return 1; }
    echo "$stats" | grep -q '"degradedRequests":[1-9]' ||
        { echo "overload: degradedRequests not counted: $stats"
          return 1; }
    echo "$stats" | grep -q 'gpmctl: breakerStateDisk: closed' ||
        { echo "overload: disk breaker state not reported: $stats"
          return 1; }
    echo "$stats" | grep -q 'gpmctl: breakerStateProfile: closed' ||
        { echo "overload: profile breaker state not reported: $stats"
          return 1; }

    stop_gpmd "$pid" "$log" || return 1
    rm -f "$log" "$resp"
}

# Metrics smoke: a daemon with --metrics-port 0 must answer raw-TCP
# HTTP GETs — /healthz with "ok", /metrics with Prometheus text
# (version 0.0.4) carrying the service counters, the reactor gauges
# and the breaker states, with request traffic visible in
# gpm_requests_total; unknown paths get 404 and the NDJSON port
# keeps serving gpmctl on the side.
gpmd_metrics_smoke() {
    local bdir=$1
    local gpmd="$bdir/src/service/gpmd"
    local gpmctl="$bdir/src/service/gpmctl"
    local log body
    log=$(mktemp)

    "$gpmd" --port 0 --metrics-port 0 --scale "$SMOKE_SCALE" \
        --profile-cache-dir "$SMOKE_STORE" >"$log" 2>&1 &
    local pid=$!
    trap 'kill "$pid" 2>/dev/null || true' RETURN

    local port mport
    port=$(wait_gpmd_port "$pid" "$log") || return 1
    mport=$(wait_gpmd_metrics_port "$pid" "$log") || return 1

    body=$(http_get "$mport" /healthz)
    echo "$body" | grep -q '^HTTP/1.0 200 ' ||
        { echo "healthz: no 200:"; echo "$body"; return 1; }
    echo "$body" | grep -q '^ok$' ||
        { echo "healthz: no ok body:"; echo "$body"; return 1; }

    # Generate traffic so the counters have something to say.
    "$gpmctl" --port "$port" ping >/dev/null ||
        { echo "metrics: ping failed"; return 1; }
    "$gpmctl" --port "$port" submit \
        --combo mcf --policy MaxBIPS --budget 0.8 >/dev/null ||
        { echo "metrics: submit failed"; return 1; }

    body=$(http_get "$mport" /metrics)
    echo "$body" | grep -q '^HTTP/1.0 200 ' ||
        { echo "metrics: no 200:"; echo "$body"; return 1; }
    echo "$body" | grep -q 'version=0.0.4' ||
        { echo "metrics: wrong content type:"; echo "$body"
          return 1; }
    local name
    for name in gpm_served_total gpm_cache_hits_total \
        gpm_worker_crashes_total gpm_shed_overload_total \
        gpm_workers_alive gpm_open_connections \
        gpm_epoll_wakeups_total gpm_bytes_in_total \
        gpm_ring_buffer_high_water gpm_uptime_seconds; do
        echo "$body" | grep -q "^$name " ||
            { echo "metrics: $name missing:"; echo "$body"
              return 1; }
    done
    echo "$body" |
        grep -q '^gpm_breaker_state{breaker="disk",state="closed"} 1$' ||
        { echo "metrics: no disk breaker state:"; echo "$body"
          return 1; }
    echo "$body" | grep -q '^gpm_requests_total [1-9]' ||
        { echo "metrics: no request traffic counted:"
          echo "$body"; return 1; }

    body=$(http_get "$mport" /nonsense)
    echo "$body" | grep -q '^HTTP/1.0 404 ' ||
        { echo "metrics: unknown path not 404:"; echo "$body"
          return 1; }

    # The NDJSON plane is unaffected by scrapes.
    "$gpmctl" --port "$port" ping | grep -q '"pong":true' ||
        { echo "metrics: NDJSON plane broken after scrapes"
          return 1; }

    stop_gpmd "$pid" "$log" || return 1
    rm -f "$log"
}

# Throughput smoke: the serving-path bench at small scale — cache
# phases plus the transport comparison (thread-per-connection
# baseline vs reactor, plus connection churn). The bench enforces
# zero request errors on every phase itself; the speedup
# ratio is only gated at full scale (>= 5000 connections), not
# here. Runs in a subshell with the fd soft limit raised to the
# hard limit — hundreds of sockets terminate in one process.
service_throughput_smoke() {
    local bdir=$1
    local out
    out=$(mktemp)
    (
        ulimit -n "$(ulimit -Hn)" 2>/dev/null || true
        GPM_SCALE="$SMOKE_SCALE" \
            GPM_PROFILE_CACHE_DIR="$SMOKE_STORE" \
            GPM_BENCH_JSON="$out" \
            GPM_BENCH_CLIENTS=2 GPM_BENCH_SCENARIOS=4 \
            GPM_BENCH_TPC_CONNS=40 GPM_BENCH_REACTOR_CONNS=200 \
            GPM_BENCH_CONN_SCENARIOS=4 GPM_BENCH_CHURN_CONNS=100 \
            "$bdir/bench/bench_service_throughput" >/dev/null
    ) || { echo "bench_service_throughput failed"; return 1; }
    [ "$(wc -l <"$out")" -eq 6 ] ||
        { echo "expected 6 NDJSON records:"; cat "$out"; return 1; }
    grep -q '"phase": "reactor-sustained"' "$out" ||
        { echo "no reactor-sustained record:"; cat "$out"
          return 1; }
    rm -f "$out"
}

echo "== tier-1: standard build + ctest =="
cmake -B "$BUILD" -S . -DGPM_WERROR=ON
cmake --build "$BUILD" -j
ctest --test-dir "$BUILD" --output-on-failure -j

echo "== tier-1: policy-kernel smoke (many-core bench NDJSON) =="
policy_kernel_smoke "$BUILD"

echo "== tier-1: gpmd smoke (ping / submit / batch / restart) =="
gpmd_smoke "$BUILD"

echo "== tier-1: gpmd profile-store smoke (cold / warm restart) =="
gpmd_profile_smoke "$BUILD"

echo "== tier-1: gpmd chaos smoke (faults / retries / recovery) =="
gpmd_chaos "$BUILD"

echo "== tier-1: gpmd deadline smoke (mid-sweep cancellation) =="
gpmd_deadline "$BUILD"

echo "== tier-1: gpmd overload smoke (shed / degrade / drain) =="
gpmd_overload "$BUILD"

echo "== tier-1: gpmd metrics smoke (/healthz + /metrics scrape) =="
gpmd_metrics_smoke "$BUILD"

echo "== tier-1: serving-path throughput smoke (reactor vs tpc) =="
service_throughput_smoke "$BUILD"

if [ "${GPM_SKIP_TSAN:-0}" = "1" ]; then
    echo "== tier-1: TSan stage skipped (GPM_SKIP_TSAN=1) =="
    exit 0
fi

echo "== tier-1: ThreadSanitizer build (pool + sweep tests) =="
cmake -B "$BUILD-tsan" -S . -DGPM_SANITIZE=thread -DGPM_WERROR=ON
cmake --build "$BUILD-tsan" -j --target gpm_tests gpmd gpmctl
# Profile building under TSan is slow; the sweep tests rebuild their
# small-scale profiles on first use, so give them a large timeout.
"$BUILD-tsan/tests/gpm_tests" \
    --gtest_filter='ThreadPool.*:SweepTest.*:ProfileStoreTest.*'

echo "== tier-1: gpmd smoke under TSan =="
gpmd_smoke "$BUILD-tsan"

echo "== tier-1: gpmd profile-store smoke under TSan =="
gpmd_profile_smoke "$BUILD-tsan"

echo "== tier-1: gpmd chaos smoke under TSan =="
gpmd_chaos "$BUILD-tsan"

echo "== tier-1: gpmd deadline smoke under TSan =="
gpmd_deadline "$BUILD-tsan"

echo "== tier-1: gpmd overload smoke under TSan =="
gpmd_overload "$BUILD-tsan"

echo "== tier-1: gpmd metrics smoke under TSan =="
gpmd_metrics_smoke "$BUILD-tsan"

echo "== tier-1: process tests under TSan (SIGKILL failover) =="
ctest --test-dir "$BUILD-tsan" -L process --output-on-failure

echo "== tier-1: all stages passed =="
