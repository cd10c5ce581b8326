/**
 * @file
 * Many-core policy-engine benchmark: decision latency and solution
 * quality of the approximate MaxBIPS policies (MaxBIPS-DP,
 * WaterFill, GreedyTurbo) against the paper's 500 µs explore
 * interval, at N ∈ {8, 64, 256, 1024} cores and k = 5 DVFS modes.
 *
 * Per (N, policy) the bench builds a predicted ModeMatrix from the
 * real workload profiles — core c runs suite[c % 12] phase-shifted
 * by frac(c·φ) via ProfileCursor::seekFraction — then measures
 * solve() latency over GPM_MANYCORE_ITERS iterations (p50/p99) and
 * the BIPS gap vs a quality reference. The bench pins itself to
 * one CPU, runs a multi-iteration untimed warmup, and trims the
 * slowest 2% of samples before taking p99 — scheduler migrations
 * and first-touch faults otherwise put a 3x outlier tail on
 * microsecond-scale solves (the old single-warmup p99 wobbled
 * 7 -> 23 µs run to run). The quality reference is: the exact MaxBIPS
 * optimum at small N (≤ 16), the MCKP LP upper bound at larger N
 * (where exact search is unaffordable; the LP bound over-estimates
 * the true optimum, so reported gaps are conservative).
 *
 * Results go to stdout and to BENCH_sweep.json as one NDJSON record
 * per (N, policy):
 *
 *   { "bench": "manycore_policies", "n_cores": N, "n_modes": 5,
 *     "policy": ..., "iters": I, "p50_us": ..., "p99_us": ...,
 *     "budget_frac": 0.75, "bips": ..., "ref_bips": ...,
 *     "ref_kind": "bnb" | "lp", "gap_pct": ..., "scale": S }
 *
 * Knobs: GPM_MANYCORE_N (comma list, default "8,64,256,1024"),
 * GPM_MANYCORE_ITERS (default 100), plus GPM_SCALE /
 * GPM_PROFILE_CACHE_DIR. The 5-mode profiles sit beside the 3-mode
 * ones in the store: the DVFS table is part of each entry's key.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <sched.h>

#include "common.hh"
#include "core/mckp.hh"
#include "core/policies.hh"
#include "trace/phase_profile.hh"
#include "trace/workload.hh"

namespace
{

using namespace gpm;

/** Golden-ratio conjugate: maximally spread phase shifts. */
constexpr double phi = 0.6180339887498949;

/** Exact search stays affordable up to this many cores. */
constexpr std::size_t exactRefMaxCores = 16;

/** Fraction of the slowest samples dropped before taking p99:
 *  migration/IRQ outliers, not solver behaviour. */
constexpr double trimFrac = 0.02;

/** p99 of the ascending-sorted sample after trimming the slowest
 *  trimFrac (at least one sample, never the whole set). */
double
trimmedP99(const std::vector<double> &sorted)
{
    std::size_t drop = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(sorted.size()) * trimFrac));
    if (drop >= sorted.size())
        drop = sorted.size() - 1;
    std::vector<double> kept(sorted.begin(),
                             sorted.end() - drop);
    return bench::percentile(kept, 0.99);
}

/** Pin this thread to the CPU it is on (best-effort): latency
 *  percentiles should measure the solver, not scheduler
 *  migrations mid-iteration. */
void
pinToCurrentCpu()
{
    int cpu = ::sched_getcpu();
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    ::sched_setaffinity(0, sizeof(set), &set);
}

/**
 * Predicted ModeMatrix of an N-core many-core scenario: core c runs
 * suite workload c % 12 phase-shifted by frac(c·φ), each mode's
 * (power, BIPS) taken from a 500 µs profile peek — the same numbers
 * a GlobalManager's predictor would see at an explore boundary.
 */
ModeMatrix
buildMatrix(ProfileLibrary &lib, const DvfsTable &dvfs,
            std::size_t n)
{
    const auto &combo = manyCoreCombo(n);
    ModeMatrix m(n, dvfs.numModes());
    for (std::size_t c = 0; c < n; c++) {
        ProfileCursor cur(lib.get(combo[c]));
        double f = static_cast<double>(c) * phi;
        cur.seekFraction(f - std::floor(f));
        for (std::size_t mi = 0; mi < dvfs.numModes(); mi++) {
            auto mode = static_cast<PowerMode>(mi);
            auto d = cur.peek(500.0, mode);
            if (d.usedUs <= 0.0)
                continue; // empty profile: zero row entry
            m.powerW(c, mode) = d.energyJ / (d.usedUs * 1e-6);
            m.bips(c, mode) = d.instructions / (d.usedUs * 1000.0);
        }
    }
    return m;
}

struct PolicyUnderTest
{
    const char *name;
    std::function<std::vector<PowerMode>(const ModeMatrix &, Watts)>
        solve;
};

} // namespace

int
main()
{
    bench::banner(
        "Many-core policy engine",
        "Decision latency (p50/p99 vs the 500 us interval) and BIPS "
        "gap of the approximate MaxBIPS policies at 8-1024 cores, "
        "k = 5 modes.");

    // Every knob is read before the profile build, so a malformed
    // one exits at once.
    const std::vector<std::size_t> core_counts = bench::countsFromEnv(
        "GPM_MANYCORE_N", "8,64,256,1024", maxManyCoreCores);
    const std::size_t iters =
        bench::countFromEnv("GPM_MANYCORE_ITERS", 100);
    double scale = bench::scaleFromEnv();

    // k = 5 linear modes: the many-core frontier needs more than the
    // paper's 3 points to differentiate DP/water-fill/greedy.
    DvfsTable dvfs = DvfsTable::linear(5);
    ProfileLibrary lib(dvfs, scale);
    bench::loadSuite(lib);
    const double budget_frac = 0.75;

    pinToCurrentCpu();

    const std::vector<PolicyUnderTest> policies = {
        {"MaxBIPS-DP",
         [](const ModeMatrix &m, Watts b) {
             return MaxBipsDpPolicy::solve(
                 m, b, MaxBipsDpPolicy::defaultGrid);
         }},
        {"WaterFill",
         [](const ModeMatrix &m, Watts b) {
             return WaterFillPolicy::solve(m, b);
         }},
        {"GreedyTurbo",
         [](const ModeMatrix &m, Watts b) {
             return GreedyTurboPolicy::solve(m, b);
         }},
    };

    Table t({"cores", "policy", "p50 [us]", "p99 [us]", "BIPS",
             "ref BIPS", "ref", "gap"});

    for (std::size_t n : core_counts) {
        ModeMatrix m = buildMatrix(lib, dvfs, n);
        // Budget: 75% of the all-Turbo chip power.
        Watts budget = budget_frac *
            m.totalPowerW(std::vector<PowerMode>(n, modes::Turbo));

        // Quality reference: the exact search where affordable,
        // the MCKP LP upper bound beyond that.
        const bool exact = n <= exactRefMaxCores;
        double ref_bips;
        if (exact) {
            ref_bips = m.totalBips(MaxBipsPolicy::solve(m, budget));
        } else {
            ref_bips = mckpUpperBound(buildFrontiers(m), budget);
        }

        for (const auto &p : policies) {
            std::vector<double> lat_us(iters, 0.0);
            // Untimed warmup passes: fault in scratch buffers,
            // caches and the branch history so the percentiles
            // reflect steady-state decisions (one pass left the
            // first timed iterations cold enough to dominate p99).
            std::vector<PowerMode> assign = p.solve(m, budget);
            for (std::size_t w = 1;
                 w < std::min<std::size_t>(iters, 16); w++)
                assign = p.solve(m, budget);
            for (std::size_t i = 0; i < iters; i++) {
                auto t0 = std::chrono::steady_clock::now();
                assign = p.solve(m, budget);
                lat_us[i] =
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
            }
            std::sort(lat_us.begin(), lat_us.end());
            double p50 = bench::percentile(lat_us, 0.50);
            double p99 = trimmedP99(lat_us);
            double bips = m.totalBips(assign);
            Watts power = m.totalPowerW(assign);
            if (power > budget + 1e-9)
                fatal("%s busts the budget at n=%zu "
                      "(%.3f W > %.3f W)",
                      p.name, n, power, budget);
            double gap = ref_bips > 0.0
                ? (ref_bips - bips) / ref_bips
                : 0.0;

            t.addRow({std::to_string(n), p.name, Table::num(p50),
                      Table::num(p99), Table::num(bips),
                      Table::num(ref_bips), exact ? "bnb" : "lp",
                      Table::pct(gap)});

            char rec[512];
            std::snprintf(
                rec, sizeof(rec),
                "{ \"bench\": \"manycore_policies\", "
                "\"n_cores\": %zu, \"n_modes\": %zu, "
                "\"policy\": \"%s\", \"iters\": %zu, "
                "\"p50_us\": %.2f, \"p99_us\": %.2f, "
                "\"p99_trim_pct\": %g, "
                "\"budget_frac\": %.2f, \"bips\": %.4f, "
                "\"ref_bips\": %.4f, \"ref_kind\": \"%s\", "
                "\"gap_pct\": %.3f, \"scale\": %g }",
                n, dvfs.numModes(), p.name, iters, p50, p99,
                trimFrac * 100.0, budget_frac, bips, ref_bips,
                exact ? "bnb" : "lp", gap * 100.0, scale);
            bench::appendBenchLine(rec);
        }
    }

    t.print();
    bench::maybeCsv("manycore_policies", t);
    std::printf("\nGaps vs \"lp\" are against the fractional MCKP "
                "upper bound (>= the true optimum);\ngaps vs "
                "\"bnb\" are against the exact integer optimum.\n");
    return 0;
}
