/**
 * @file
 * Ablation (paper Section 5.3 discussion): how the number of DVFS
 * modes changes the picture. The paper argues chip-wide DVFS could
 * close some of its gap with more modes, but that the required mode
 * count grows with core count. We profile the suite under linear
 * DVFS tables with 3/4/5/7 modes and compare MaxBIPS and chip-wide
 * degradation at a fixed budget. The mode-count scenarios are fully
 * independent (own table, own profiles), so each runs on its own
 * thread.
 *
 * Uses a reduced length scale (GPM_ABLATION_SCALE) since each
 * mode-count needs a fresh profiling pass; the profiles land in the
 * shared store under their own fingerprints.
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common.hh"
#include "util/table.hh"

int
main()
{
    using namespace gpm;
    const double scale = bench::scaleFromEnv("GPM_ABLATION_SCALE", 0.1);

    bench::banner("Ablation — DVFS mode-count sensitivity",
                  "MaxBIPS vs chip-wide degradation at an 80% "
                  "budget, (ammp, mcf, crafty, art), as the mode "
                  "count grows (linear tables 1.0 .. 0.85).");

    auto combo = combination("4way1");
    const std::vector<std::size_t> mode_counts{2, 3, 4, 5, 7};
    std::vector<std::vector<std::string>> rows(mode_counts.size());

    std::size_t threads = defaultConcurrency();
    bench::WallTimer timer;
    parallelFor(threads, mode_counts.size(), [&](std::size_t i) {
        std::size_t n = mode_counts[i];
        DvfsTable dvfs = DvfsTable::linear(n, 0.85);
        ProfileLibrary lib(dvfs, scale);
        bench::loadSuite(lib);
        ExperimentRunner runner(lib, dvfs);
        auto mb = runner.evaluate(combo, "MaxBIPS", 0.8);
        auto cw = runner.evaluate(combo, "ChipWideDVFS", 0.8);
        rows[i] = {std::to_string(n),
                   Table::pct(mb.metrics.perfDegradation),
                   Table::pct(cw.metrics.perfDegradation),
                   Table::pct(cw.metrics.powerOverBudget)};
    });
    double par_ms = timer.ms();

    Table t({"Modes", "MaxBIPS degr.", "ChipWide degr.",
             "ChipWide budget use"});
    for (const auto &row : rows)
        t.addRow(row);
    t.print();
    bench::appendSweepJson("ablation_modes", mode_counts.size(),
                           threads, 0.0, par_ms);

    std::printf("\nExpected shape: more modes help chip-wide DVFS "
                "exploit budget slack (budget use rises toward "
                "100%%, degradation falls), narrowing but not "
                "closing the gap to per-core MaxBIPS.\n");
    return 0;
}
