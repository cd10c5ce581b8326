#!/usr/bin/env bash
# Tier-1 verification: the standard build with GPM_WERROR=ON (so
# library warnings fail the stage) and the whole ctest suite, which
# includes the real-process cases of tests/smoke.sh (labels
# `process` and `bench`); then a ThreadSanitizer build running the
# concurrency-sensitive gtests and the `process` cases. The TSan
# stage can be skipped with GPM_SKIP_TSAN=1 (e.g. on toolchains
# without libtsan).
#
# Usage: scripts/tier1.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

# The worker pool and sweep determinism, the profile store and the
# disk cache (concurrent writers of one entry), the in-process
# service (concurrent identical submits; each job carries its
# scenario text from the submitting thread to a worker), the cluster
# manager (chips fanned out over the shared pool), and the serving
# stack over real sockets: protocol, faults, overload, pipelined
# submits, the reactor and /metrics, and gpmctl against two daemons.
TSAN_FILTER="ThreadPool.*:SweepTest.*:ProfileStoreTest.*"
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
