#!/usr/bin/env bash
# Launch a gpmd fleet: N daemons on ephemeral ports over a shared
# cache/profile directory tree. Prints the gpmctl --host list that
# shards over them (gpmctl sends each scenario to its ring owner and
# fails over down the key's ranking), then waits; Ctrl-C (or
# SIGTERM) drains and stops the daemons.
#
# Usage: scripts/fleet.sh [N] [build-dir]
#   N          daemons to launch (default 2)
#   build-dir  cmake build directory (default build)
#
# Knobs (env): GPM_FLEET_CACHE_DIR (shared result-cache directory,
# default a fresh mktemp -d), GPM_FLEET_PROFILE_DIR (shared
# profile store, default <cache>/profiles), GPM_FLEET_SCALE
# (passed as gpmd --scale), GPM_FLEET_GPMD_ARGS (extra gpmd
# flags).
set -euo pipefail

cd "$(dirname "$0")/.."
N="${1:-2}"
BUILD="${2:-build}"
GPMD="$BUILD/src/service/gpmd"

[ -x "$GPMD" ] || { echo "fleet: build $GPMD first" >&2; exit 1; }
[ "$N" -ge 1 ] 2>/dev/null ||
    { echo "fleet: N must be a positive integer" >&2; exit 1; }

CACHE_DIR="${GPM_FLEET_CACHE_DIR:-$(mktemp -d /tmp/gpm_fleet_XXXXXX)}"
PROFILE_DIR="${GPM_FLEET_PROFILE_DIR:-$CACHE_DIR/profiles}"
mkdir -p "$CACHE_DIR" "$PROFILE_DIR"

LOG_DIR=$(mktemp -d /tmp/gpm_fleet_logs_XXXXXX)
PIDS=()

cleanup() {
    for pid in "${PIDS[@]}"; do
        kill -TERM "$pid" 2>/dev/null || true
    done
    for pid in "${PIDS[@]}"; do
        wait "$pid" 2>/dev/null || true
    done
    echo "fleet: stopped (logs in $LOG_DIR)"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

wait_port() { # $1 = pid, $2 = log
    local port="" i
    for i in $(seq 1 600); do
        port=$(sed -n 's/^gpmd: listening on .*:\([0-9]*\)$/\1/p' \
            "$2")
        [ -n "$port" ] && { echo "$port"; return 0; }
        kill -0 "$1" 2>/dev/null ||
            { echo "fleet: gpmd exited early:" >&2; cat "$2" >&2
              return 1; }
        sleep 0.5
    done
    echo "fleet: gpmd never listened:" >&2
    cat "$2" >&2
    return 1
}

HOSTS=""
for i in $(seq 1 "$N"); do
    LOG="$LOG_DIR/gpmd-$i.log"
    # shellcheck disable=SC2086
    "$GPMD" --port 0 \
        --cache-dir "$CACHE_DIR" \
        --profile-cache-dir "$PROFILE_DIR" \
        ${GPM_FLEET_SCALE:+--scale "$GPM_FLEET_SCALE"} \
        ${GPM_FLEET_GPMD_ARGS:-} >"$LOG" 2>&1 &
    PIDS+=($!)
    PORT=$(wait_port "${PIDS[-1]}" "$LOG")
    HOSTS="${HOSTS:+$HOSTS,}127.0.0.1:$PORT"
    echo "fleet: gpmd $i on 127.0.0.1:$PORT (pid ${PIDS[-1]})"
done

echo "fleet: $N daemons; shared cache dir $CACHE_DIR"
echo "fleet: --host $HOSTS"
echo "fleet: try: $BUILD/src/service/gpmctl --host $HOSTS submit" \
    "--json '{\"combo\":[\"mcf\",\"crafty\"],\"policy\":\"MaxBIPS\",\"budget\":0.8}'"
echo "fleet: Ctrl-C to drain and stop"
wait "${PIDS[@]}"
