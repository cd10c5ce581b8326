/**
 * @file
 * Reproduces paper Figure 4: policy curves (performance degradation
 * vs budget), budget curves (power consumed vs budget), and weighted
 * slowdowns for Priority, PullHiPushLo, MaxBIPS and chip-wide DVFS
 * on the (ammp, mcf, crafty, art) 4-way combination.
 *
 * Also checks the parallel sweep engine: the (policy x budget) grid
 * is evaluated once serially and once through
 * ExperimentRunner::sweep and the results must be identical. Only
 * the parallel wall time lands in BENCH_sweep.json: the 24-point
 * sweep takes well under a millisecond at small scales, too short
 * for a serial-vs-parallel speedup to mean anything.
 */

#include <cstdio>

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
    const std::vector<std::string> policies{
        "PullHiPushLo", "Priority", "MaxBIPS", "ChipWideDVFS"};

    bench::banner("Figure 4 — policy / budget / weighted-slowdown "
                  "curves",
                  "(ammp, mcf, crafty, art), budgets as % of the "
                  "all-Turbo chip power.");

    SweepSpec spec;
    spec.addGrid({combo}, policies, budgets);

    // Warm the per-combo reference so the timed pass measures pure
    // policy evaluation.
    runner.referencePowerW(combo);

    auto serial = bench::sweepChecked(runner, spec, 1);

    std::size_t threads = defaultConcurrency();
    bench::WallTimer par_t;
    auto evals = bench::sweepChecked(runner, spec, threads);
    double par_ms = par_t.ms();

    // The sweep contract: thread count never changes results.
    for (std::size_t i = 0; i < evals.size(); i++)
        if (evals[i].metrics.chipBips !=
            serial[i].metrics.chipBips)
            fatal("sweep mismatch at point %zu", i);

    // Spec order is policy-major (addGrid: policy, then budget).
    auto at = [&](std::size_t p, std::size_t b) -> const PolicyEval & {
        return evals[p * budgets.size() + b];
    };

    auto header = [&]() {
        std::vector<std::string> h{"Budget"};
        for (const auto &p : policies)
            h.push_back(p);
        return h;
    };

    std::printf("(a) Policy curves: performance degradation\n");
    Table ta(header());
    for (std::size_t b = 0; b < budgets.size(); b++) {
        std::vector<std::string> row{Table::pct(budgets[b], 1)};
        for (std::size_t p = 0; p < policies.size(); p++)
            row.push_back(
                Table::pct(at(p, b).metrics.perfDegradation));
        ta.addRow(row);
    }
    ta.print();
    bench::maybeCsv("fig4a_policy_curves", ta);

    std::printf("\n(b) Budget curves: consumed power / target "
                "budget\n");
    Table tb(header());
    for (std::size_t b = 0; b < budgets.size(); b++) {
        std::vector<std::string> row{Table::pct(budgets[b], 1)};
        for (std::size_t p = 0; p < policies.size(); p++)
            row.push_back(
                Table::pct(at(p, b).metrics.powerOverBudget));
        tb.addRow(row);
    }
    tb.print();
    bench::maybeCsv("fig4b_budget_curves", tb);

    std::printf("\n(c) Weighted slowdowns (harmonic mean of thread "
                "speedups)\n");
    Table tc(header());
    for (std::size_t b = 0; b < budgets.size(); b++) {
        std::vector<std::string> row{Table::pct(budgets[b], 1)};
        for (std::size_t p = 0; p < policies.size(); p++)
            row.push_back(
                Table::pct(at(p, b).metrics.weightedSlowdown));
        tc.addRow(row);
    }
    tc.print();
    bench::maybeCsv("fig4c_weighted_slowdowns", tc);

    std::printf("\nsweep engine: %zu points, %zu threads %.1f ms, "
                "identical to the serial pass\n",
                spec.size(), threads, par_ms);
    bench::appendSweepJson("fig4_policy_curves", spec.size(),
                           threads, 0.0, par_ms);

    std::printf("\nExpected shape (paper): MaxBIPS lowest "
                "degradation at every budget; chip-wide DVFS worst "
                "and leaves power slack (budget curve steps); all "
                "per-core policies sit near 100%% of budget.\n");
    return 0;
}
