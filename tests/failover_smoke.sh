#!/usr/bin/env bash
# SIGKILL failover across real gpmd processes. Two daemons share one
# fresh --cache-dir; gpmctl --host A,B places four budgets on their
# ring owners. The daemon that served at least one of them is
# SIGKILLed, and every resubmit (--retries 8) must still exit 0 with
# "cached":true: gpmctl moves down the key's ranking to the
# survivor, which serves the dead daemon's results from the shared
# disk tier. The survivor must then drain cleanly on SIGTERM.
#
# Usage: failover_smoke.sh GPMD GPMCTL PROFILE_STORE WORK_DIR
set -euo pipefail

GPMD=$1 GPMCTL=$2 STORE=$3 WORK=$4
SCALE=0.03
BUDGETS="0.60 0.66 0.72 0.78"

rm -rf "$WORK"
mkdir -p "$WORK/cache" "$STORE"
PIDS=()
trap 'kill -9 "${PIDS[@]}" 2>/dev/null || true' EXIT

start_gpmd() { # $1 = log
    "$GPMD" --port 0 --scale "$SCALE" --profile-cache-dir "$STORE" \
        --cache-dir "$WORK/cache" >"$1" 2>&1 &
    PIDS+=($!)
}

wait_port() { # $1 = pid, $2 = log; echoes the port
    local port="" i
    for i in $(seq 1 600); do
        port=$(sed -n 's/^gpmd: listening on .*:\([0-9]*\)$/\1/p' "$2")
        [ -n "$port" ] && { echo "$port"; return 0; }
        kill -0 "$1" 2>/dev/null ||
            { echo "gpmd exited early:" >&2; cat "$2" >&2; return 1; }
        sleep 0.2
    done
    echo "gpmd never listened:" >&2
    cat "$2" >&2
    return 1
}

submit() { # $1 = budget, then extra gpmctl flags
    local b=$1
    shift
    "$GPMCTL" --host "127.0.0.1:$PORT1,127.0.0.1:$PORT2" "$@" \
        submit --combo mcf,crafty --policy MaxBIPS --budget "$b"
}

start_gpmd "$WORK/gpmd1.log"
start_gpmd "$WORK/gpmd2.log"
PORT1=$(wait_port "${PIDS[0]}" "$WORK/gpmd1.log")
PORT2=$(wait_port "${PIDS[1]}" "$WORK/gpmd2.log")

for b in $BUDGETS; do
    submit "$b" | grep -q '"ok":true' ||
        { echo "submit budget=$b failed"; exit 1; }
done

misses() { # $1 = port; echoes the daemon's computed-request count
    "$GPMCTL" --port "$1" stats 2>/dev/null |
        sed -n 's/.*"cacheMisses":\([0-9]*\).*/\1/p'
}

# The victim is a daemon that computed at least one budget.
victim=""
for k in 1 2; do
    port_var="PORT$k"
    lost=$(misses "${!port_var}")
    if [ "${lost:-0}" -gt 0 ]; then
        victim=$k
        break
    fi
done
[ -n "$victim" ] || { echo "no daemon served a submit"; exit 1; }
survivor=$((3 - victim))
port_var="PORT$survivor"
SPORT=${!port_var}
kill -9 "${PIDS[$((victim - 1))]}"
wait "${PIDS[$((victim - 1))]}" 2>/dev/null || true

for b in $BUDGETS; do
    out=$(submit "$b" --retries 8) ||
        { echo "resubmit budget=$b exited non-zero: $out"; exit 1; }
    echo "$out" | grep -q '"cached":true' ||
        { echo "resubmit budget=$b not served cached: $out"; exit 1; }
done

# The victim's budgets came off the survivor's disk tier.
"$GPMCTL" --port "$SPORT" stats 2>/dev/null | grep -q "\"diskHits\":$lost[,}]" ||
    { echo "survivor did not serve $lost disk hits"; exit 1; }

spid=${PIDS[$((survivor - 1))]}
slog="$WORK/gpmd$survivor.log"
kill -TERM "$spid"
rc=0
wait "$spid" || rc=$?
[ "$rc" -eq 0 ] || { echo "survivor exit code $rc:"; cat "$slog"; exit 1; }
grep -q 'gpmd: shutdown complete' "$slog" ||
    { echo "survivor did not shut down cleanly:"; cat "$slog"; exit 1; }
rm -rf "$WORK"
echo "failover smoke passed"
