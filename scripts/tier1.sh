#!/usr/bin/env bash
# Tier-1 verification: the standard build with GPM_WERROR=ON (so
# library warnings fail the stage) and the whole ctest suite, which
# includes the real-process cases of tests/smoke.sh (labels
# `process` and `bench`); a build of the benchmark's programs under
# perfbench/ and a short traced replay of each workload; then a
# ThreadSanitizer build running the concurrency-sensitive gtests and
# the `process` cases. The TSan
# stage can be skipped with GPM_SKIP_TSAN=1 (e.g. on toolchains
# without libtsan).
#
# Usage: scripts/tier1.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

# The worker pool and sweep determinism, a simulator's first runs
# racing to build its held-mode memo, the profile store and the
# disk cache (concurrent writers of one entry), the in-process
# service (concurrent identical submits; each job carries its
# scenario text from the submitting thread to a worker), the cluster
# manager (chips fanned out over the shared pool), and the serving
# stack over real sockets: protocol, faults, overload, pipelined
# submits, the reactor and /metrics, and gpmctl against two daemons.
TSAN_FILTER="ThreadPool.*:SweepTest.*:ProfileStoreTest.*"
TSAN_FILTER+=":CmpSimTest.ConcurrentFirstRunsMatchReplay"
TSAN_FILTER+=":ServiceTest.*"
TSAN_FILTER+=":ServerTest.*:ChaosServerTest.*:ChaosServiceTest.*"
TSAN_FILTER+=":OverloadServiceTest.*:BatchTest.*:BatchServerTest.*"
TSAN_FILTER+=":ReactorServerTest.*:GpmctlShardTest.*:DiskBreakerTest.*"
TSAN_FILTER+=":DiskCacheTest.*"
TSAN_FILTER+=":ClusterTest.*"

# Every build and ctest call takes the core count: a bare `-j`
# starts unbounded make jobs, and CMake 3.25 runs a bare `ctest -j`
# one case at a time.
echo "== tier-1: standard build + ctest =="
cmake -B "$BUILD" -S . -DGPM_WERROR=ON
cmake --build "$BUILD" -j "$(nproc)"
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

# The benchmark's replay and load generator compile against gpm's
# libraries (ScenarioService, DiskCache, ProfileLibrary, the
# experiment runner, CmpSim, GlobalManager): building them here
# turns a signature change in src/ into a failed stage instead of a
# failed benchmark run.
echo "== tier-1: benchmark build =="
cmake -B "$BUILD-perfbench" -S perfbench -DGPM_WERROR=ON
cmake --build "$BUILD-perfbench" -j "$(nproc)" \
    --target gpm_replay gpm_loadgen

# The traced replay runs each request through the modules one by one
# on simulators it binds itself (which build their held-mode memos
# as gpmd's do), then through the sweep engine and an in-process
# ScenarioService, and counts payloads that differ between them.
echo "== tier-1: benchmark replay =="
for workload in cold manycore; do
    disk_dir="$(mktemp -d)"
    status=0
    line="$("$BUILD-perfbench/gpm_replay" --workload "$workload" \
        --seed 1 --scale 0.03 --store "$BUILD/gpm_profiles_test" \
        --trace 200 --disk-dir "$disk_dir" | tail -n 1)" || status=$?
    rm -rf "$disk_dir"
    echo "$workload: $line"
    case "$status:$line" in
    0:*'"mismatches":0,'*) ;;
    *)
        echo "tier-1: the $workload replay failed or its payloads" \
            "differ" >&2
        exit 1
        ;;
    esac
done

if [ "${GPM_SKIP_TSAN:-0}" = "1" ]; then
    echo "== tier-1: TSan stage skipped (GPM_SKIP_TSAN=1) =="
    exit 0
fi

echo "== tier-1: ThreadSanitizer build =="
cmake -B "$BUILD-tsan" -S . -DGPM_SANITIZE=thread -DGPM_WERROR=ON
cmake --build "$BUILD-tsan" -j "$(nproc)" --target gpm_tests gpmd gpmctl

echo "== tier-1: concurrency gtests under TSan =="
"$BUILD-tsan/tests/gpm_tests" --gtest_filter="$TSAN_FILTER"

echo "== tier-1: process tests under TSan =="
ctest --test-dir "$BUILD-tsan" -L process --output-on-failure

echo "== tier-1: all stages passed =="
