/**
 * @file
 * Cluster budget-arbiter benchmark: facility-level decision latency
 * and solution quality of the hierarchical (frontier-collapse)
 * allocation against a flat chip-blind MaxBIPS-DP solve, at
 * M ∈ {4, 16, 64} chips × N ∈ {16, 64, 256} cores and k = 5 modes.
 *
 * Per (M, N) the bench builds M per-chip predicted ModeMatrices from
 * the real workload profiles — chip i core c runs suite[(iN+c) % 12]
 * phase-shifted by frac((iN+c)·φ) — then measures the cluster
 * decision on its deployment critical path over GPM_CLUSTER_ITERS
 * iterations (p50/p99): every chip collapses + quantizes its own
 * frontier on-chip (concurrent across chips, so the slowest chip
 * bounds the phase; each is timed individually to stay independent
 * of this process's host-core count), then the facility arbiter
 * solves MaxBIPS-DP over the M reported 16-level frontiers. Inner
 * per-chip decisions run on-chip behind the award, so they are
 * excluded from the latency but included in the quality number:
 * hierarchical BIPS is the sum of per-chip MaxBIPS-DP solves at the
 * awarded budgets. The flat reference solves one concatenated
 * (M·N) × k matrix at the same facility budget, computed only at
 * M·N ≤ 1024 (where the paper-size flat policy engine is the
 * meaningful competitor).
 *
 * Results go to stdout and to BENCH_sweep.json as one NDJSON record
 * per (M, N):
 *
 *   { "bench": "cluster_scale", "n_chips": M, "n_cores": N,
 *     "n_modes": 5, "levels": 16, "iters": I, "p50_us": ...,
 *     "p99_us": ..., "budget_frac": 0.75, "hier_bips": ...,
 *     "flat_bips": ..., "gap_pct": ..., "scale": S }
 *
 * (flat_bips and gap_pct are 0 when the flat reference is skipped.)
 *
 * Knobs: GPM_CLUSTER_M (comma list, default "4,16,64"),
 * GPM_CLUSTER_N (default "16,64,256"), GPM_CLUSTER_ITERS (default
 * 50), plus GPM_SCALE / GPM_PROFILE_CACHE_DIR. Shares its 5-mode
 * profiles with the many-core policy bench through the store.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "common.hh"
#include "core/policies.hh"
#include "trace/phase_profile.hh"
#include "trace/workload.hh"

namespace
{

using namespace gpm;

/** Golden-ratio conjugate: maximally spread phase shifts. */
constexpr double phi = 0.6180339887498949;

constexpr unsigned kLevels = 16;
constexpr double kBudgetFrac = 0.75;

/** Flat reference only where the single-chip engine is plausible. */
constexpr std::size_t flatRefMaxCores = 1024;

/**
 * Chip i's predicted N-core ModeMatrix: core c runs suite workload
 * (iN + c) % 12 phase-shifted by frac((iN + c)·φ) — every core of
 * every chip sees a different region of the streams, like the
 * many-core policy bench one level down.
 */
ModeMatrix
buildChipMatrix(ProfileLibrary &lib, const DvfsTable &dvfs,
                std::size_t chip, std::size_t n)
{
    const auto &combo = manyCoreCombo(n);
    ModeMatrix m(n, dvfs.numModes());
    for (std::size_t c = 0; c < n; c++) {
        ProfileCursor cur(lib.get(combo[c]));
        double f = static_cast<double>(chip * n + c) * phi;
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

} // namespace

int
main()
{
    bench::banner(
        "Cluster budget arbiter",
        "Facility-level decision latency (collapse + quantize + "
        "MaxBIPS-DP allocation) and hierarchical-vs-flat BIPS at "
        "4-64 chips x 16-256 cores, k = 5 modes.");

    // Every knob is read before the profile build, so a malformed
    // one exits at once.
    const std::vector<std::size_t> chip_counts =
        bench::countsFromEnv("GPM_CLUSTER_M", "4,16,64");
    const std::vector<std::size_t> core_counts =
        bench::countsFromEnv("GPM_CLUSTER_N", "16,64,256");
    const std::size_t iters =
        bench::countFromEnv("GPM_CLUSTER_ITERS", 50);
    double scale = bench::scaleFromEnv();

    DvfsTable dvfs = DvfsTable::linear(5);
    ProfileLibrary lib(dvfs, scale);
    bench::loadSuite(lib);

    Table t({"chips", "cores", "p50 [us]", "p99 [us]", "hier BIPS",
             "flat BIPS", "gap"});

    for (std::size_t mchips : chip_counts) {
        for (std::size_t n : core_counts) {
            std::vector<ModeMatrix> mats;
            mats.reserve(mchips);
            Watts turbo_total = 0.0;
            for (std::size_t i = 0; i < mchips; i++) {
                mats.push_back(buildChipMatrix(lib, dvfs, i, n));
                turbo_total += mats[i].totalPowerW(
                    std::vector<PowerMode>(n, modes::Turbo));
            }
            const Watts facility_w = kBudgetFrac * turbo_total;

            // The timed unit is one outer-epoch decision on its
            // deployment critical path: each chip collapses and
            // quantizes its own frontier on-chip — physically
            // concurrent across chips — and the facility arbiter
            // then solves over the M reported frontiers. Decision
            // latency is therefore the slowest single-chip collapse
            // plus the serial facility allocation; each chip is
            // timed individually so the number does not depend on
            // how many host cores this benchmark process happens to
            // get. Inner per-chip mode solves are off this path.
            using clk = std::chrono::steady_clock;
            auto us = [](clk::time_point a, clk::time_point b) {
                return std::chrono::duration<double, std::micro>(
                           b - a)
                    .count();
            };
            // Each step is timed as the median of three repeats:
            // on a shared host a single preemption would otherwise
            // masquerade as the slowest chip, and the max over M
            // chips amplifies any such spike straight into p99.
            auto timed3 = [&](auto &&step) {
                double a = 0.0, b = 0.0, c = 0.0;
                for (double *slot : {&a, &b, &c}) {
                    auto t0 = clk::now();
                    step();
                    *slot = us(t0, clk::now());
                }
                return std::max(std::min(a, b),
                                std::min(std::max(a, b), c));
            };
            std::vector<ChipFrontier> fronts(mchips);
            ClusterAllocation alloc;
            auto decide = [&]() -> double {
                double slowest_chip = 0.0;
                for (std::size_t i = 0; i < mchips; i++)
                    slowest_chip = std::max(
                        slowest_chip, timed3([&] {
                            fronts[i] = quantizeFrontier(
                                collapseChipFrontier(mats[i]),
                                kLevels);
                        }));
                return slowest_chip + timed3([&] {
                    alloc = allocateFacilityBudget(
                        fronts, facility_w, "MaxBIPS-DP");
                });
            };
            decide(); // untimed warmup
            std::vector<double> lat_us(iters, 0.0);
            for (std::size_t i = 0; i < iters; i++)
                lat_us[i] = decide();
            std::sort(lat_us.begin(), lat_us.end());
            double p50 = bench::percentile(lat_us, 0.50);
            double p99 = bench::percentile(lat_us, 0.99);

            if (!alloc.feasible)
                fatal("facility budget infeasible at M=%zu N=%zu",
                      mchips, n);
            double award_sum = 0.0;
            for (Watts w : alloc.awardsW)
                award_sum += w;
            if (award_sum > facility_w * (1.0 + 1e-9))
                fatal("awards bust the facility budget at "
                      "M=%zu N=%zu (%.3f W > %.3f W)",
                      mchips, n, award_sum, facility_w);

            // Quality: inner MaxBIPS-DP at the awarded budgets.
            double hier_bips = 0.0;
            for (std::size_t i = 0; i < mchips; i++) {
                auto pick = MaxBipsDpPolicy::solve(
                    mats[i], alloc.awardsW[i],
                    MaxBipsDpPolicy::defaultGrid);
                hier_bips += mats[i].totalBips(pick);
            }

            // Flat reference: one chip-blind solve over the
            // concatenated matrix, where that engine is plausible.
            const bool flat = mchips * n <= flatRefMaxCores;
            double flat_bips = 0.0;
            if (flat) {
                ModeMatrix big(mchips * n, dvfs.numModes());
                for (std::size_t i = 0; i < mchips; i++)
                    for (std::size_t c = 0; c < n; c++)
                        for (std::size_t mi = 0;
                             mi < dvfs.numModes(); mi++) {
                            auto mode = static_cast<PowerMode>(mi);
                            big.powerW(i * n + c, mode) =
                                mats[i].powerW(c, mode);
                            big.bips(i * n + c, mode) =
                                mats[i].bips(c, mode);
                        }
                auto pick = MaxBipsDpPolicy::solve(
                    big, facility_w, MaxBipsDpPolicy::defaultGrid);
                flat_bips = big.totalBips(pick);
            }
            double gap = flat && flat_bips > 0.0
                ? (flat_bips - hier_bips) / flat_bips
                : 0.0;

            t.addRow({std::to_string(mchips), std::to_string(n),
                      Table::num(p50), Table::num(p99),
                      Table::num(hier_bips),
                      flat ? Table::num(flat_bips) : "-",
                      flat ? Table::pct(gap) : "-"});

            char rec[512];
            std::snprintf(
                rec, sizeof(rec),
                "{ \"bench\": \"cluster_scale\", "
                "\"n_chips\": %zu, \"n_cores\": %zu, "
                "\"n_modes\": %zu, \"levels\": %u, "
                "\"iters\": %zu, \"p50_us\": %.2f, "
                "\"p99_us\": %.2f, \"budget_frac\": %.2f, "
                "\"hier_bips\": %.4f, \"flat_bips\": %.4f, "
                "\"gap_pct\": %.3f, \"scale\": %g }",
                mchips, n, dvfs.numModes(), kLevels, iters, p50,
                p99, kBudgetFrac, hier_bips, flat_bips, gap * 100.0,
                scale);
            bench::appendBenchLine(rec);
        }
    }

    t.print();
    bench::maybeCsv("cluster_scale", t);
    return 0;
}
