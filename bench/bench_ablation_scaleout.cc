/**
 * @file
 * Ablation (paper Section 8 outlook: "more aggressive scale-out
 * strategies"): global management at 16/32/64 cores. Enumerating
 * all 3^N MaxBIPS states is infeasible there; MaxBIPS's exact
 * branch-and-bound search keeps decisions far below the explore
 * interval while preserving exact results. Workloads are the
 * Table 2 8-way set replicated.
 *
 * The per-combo references and the chip-wide baseline runs fan out
 * through the pool; the MaxBIPS runs stay serial because their wall
 * clock *is* the measurement (per-decision latency must not share
 * the machine with sibling runs).
 */

#include <chrono>
#include <cstdio>

#include "common.hh"
#include "util/table.hh"

int
main()
{
    using namespace gpm;
    bench::Env env;
    auto runner = env.runner();

    bench::banner("Ablation — scale-out to 16/32/64 cores",
                  "MaxBIPS vs chip-wide DVFS at an 80% budget; "
                  "decision latency must stay below the 500 us "
                  "explore interval.");

    auto base = combination("8way1");
    const std::vector<int> reps{1, 2, 4, 8};
    std::vector<std::vector<std::string>> combos;
    for (int r : reps) {
        std::vector<std::string> combo;
        for (int i = 0; i < r; i++)
            combo.insert(combo.end(), base.begin(), base.end());
        combos.push_back(std::move(combo));
    }

    // Warm references and run the untimed chip-wide baselines in
    // parallel before the timed serial MaxBIPS passes.
    std::vector<PolicyEval> cw(combos.size());
    std::size_t threads = defaultConcurrency();
    bench::WallTimer warm_t;
    parallelFor(threads, combos.size(), [&](std::size_t i) {
        runner.referencePowerW(combos[i]);
        cw[i] = runner.evaluate(combos[i], "ChipWideDVFS", 0.8);
    });
    double warm_ms = warm_t.ms();

    Table t({"Cores", "MaxBIPS degr.", "ChipWide degr.",
             "gap", "decision us (MaxBIPS)"});
    for (std::size_t i = 0; i < combos.size(); i++) {
        auto t0 = std::chrono::steady_clock::now();
        auto mb = runner.evaluate(combos[i], "MaxBIPS", 0.8);
        auto wall = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        double per_decision = mb.managerStats.decisions
            ? wall / static_cast<double>(mb.managerStats.decisions)
            : 0.0;
        t.addRow(
            {std::to_string(combos[i].size()),
             Table::pct(mb.metrics.perfDegradation),
             Table::pct(cw[i].metrics.perfDegradation),
             Table::pct(cw[i].metrics.perfDegradation -
                        mb.metrics.perfDegradation),
             Table::num(per_decision, 1) + " (sim+decide)"});
    }
    t.print();
    bench::appendSweepJson("ablation_scaleout_warm", combos.size(),
                           threads, 0.0, warm_ms);

    std::printf("\nExpected shape: the per-core policy's advantage "
                "over chip-wide grows with core count (paper "
                "Figure 11 trend), and MaxBIPS decisions remain "
                "tractable at 64 cores where exhaustive search "
                "(3^64 states) is impossible.\n");
    return 0;
}
