/**
 * @file
 * Reproduces paper Figure 7: MaxBIPS against its bounds — the
 * dynamic oracle (upper) and optimistic static mode selection
 * (lower) — plus chip-wide DVFS, as policy curves and weighted
 * slowdowns on (ammp, mcf, crafty, art). Key result: MaxBIPS within
 * ~1% of the oracle at every budget. All four method curves fan out
 * through the parallel sweep engine.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.hh"
#include "util/table.hh"

int
main()
{
    using namespace gpm;
    bench::Env env;
    auto runner = env.runner();
    auto combo = combination("4way1");
    auto budgets = bench::standardBudgets();
    const std::vector<std::string> methods{"ChipWideDVFS", "Static",
                                           "MaxBIPS", "Oracle"};

    bench::banner("Figure 7 — MaxBIPS vs oracle and optimistic "
                  "static bounds",
                  "(ammp, mcf, crafty, art).");

    SweepSpec spec;
    spec.addGrid({combo}, methods, budgets);

    std::size_t threads = defaultConcurrency();
    bench::WallTimer timer;
    auto flat = bench::sweepChecked(runner, spec, threads);
    double par_ms = timer.ms();

    // Method-major spec order -> per-method curves.
    auto at = [&](std::size_t m, std::size_t b) -> const PolicyEval & {
        return flat[m * budgets.size() + b];
    };

    std::printf("(a) Policy curves: performance degradation\n");
    Table ta({"Budget", "ChipWideDVFS", "Static", "MaxBIPS",
              "Oracle", "MaxBIPS-Oracle"});
    std::vector<double> gaps;
    for (std::size_t b = 0; b < budgets.size(); b++) {
        double gap = at(2, b).metrics.perfDegradation -
            at(3, b).metrics.perfDegradation;
        gaps.push_back(gap);
        ta.addRow({Table::pct(budgets[b], 1),
                   Table::pct(at(0, b).metrics.perfDegradation),
                   Table::pct(at(1, b).metrics.perfDegradation),
                   Table::pct(at(2, b).metrics.perfDegradation),
                   Table::pct(at(3, b).metrics.perfDegradation),
                   Table::pct(gap)});
    }
    ta.print();
    bench::maybeCsv("fig7a_policy_curves", ta);

    std::printf("\n(b) Weighted slowdowns\n");
    Table tb({"Budget", "ChipWideDVFS", "Static", "MaxBIPS",
              "Oracle"});
    for (std::size_t b = 0; b < budgets.size(); b++) {
        tb.addRow({Table::pct(budgets[b], 1),
                   Table::pct(at(0, b).metrics.weightedSlowdown),
                   Table::pct(at(1, b).metrics.weightedSlowdown),
                   Table::pct(at(2, b).metrics.weightedSlowdown),
                   Table::pct(at(3, b).metrics.weightedSlowdown)});
    }
    tb.print();
    bench::maybeCsv("fig7b_weighted_slowdowns", tb);
    bench::appendSweepJson("fig7_bounds", spec.size(), threads, 0.0,
                           par_ms);

    // Signed: at small scales the oracle can degrade more than
    // MaxBIPS, and that negative gap must show.
    auto [lo, hi] = std::minmax_element(gaps.begin(), gaps.end());
    std::printf("\nMaxBIPS - oracle degradation: %+.2f%% to %+.2f%% "
                "across budgets (paper: within ~1%%).\n",
                *lo * 100.0, *hi * 100.0);
    return 0;
}
