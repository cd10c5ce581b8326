/**
 * @file
 * Reproduces the paper Section 3.1 validation: trace-based CMP
 * analysis vs the cycle-level full-CMP model (shared L2 + bus,
 * multiple clock domains). The paper reports full-CMP powers
 * consistently lower (within ~5%) and performance lower by ~9% on
 * average (up to ~30% for highly memory-bound combinations) due to
 * shared-cache and bus conflicts, with per-benchmark variations much
 * smaller than inter-benchmark differences.
 *
 * Runs at a reduced length scale (the detailed model is ~1000x
 * slower than trace replay); override with GPM_VALIDATION_SCALE.
 */

#include <cstdio>
#include <cstdlib>

#include "common.hh"
#include "fullsim/cmp_system.hh"
#include "sim/cmp_sim.hh"
#include "util/stats.hh"
#include "util/table.hh"

int
main()
{
    using namespace gpm;
    const double scale = bench::scaleFromEnv("GPM_VALIDATION_SCALE", 0.02);

    bench::banner("Section 3.1 — trace-based vs full-CMP "
                  "validation",
                  "Per-combination chip power and throughput of the "
                  "fast trace-based tool vs the contention-aware "
                  "full-CMP model (static all-Turbo runs).");

    DvfsTable dvfs = DvfsTable::classic3();
    ProfileLibrary lib(dvfs, scale);
    SimConfig cfg;
    ExperimentRunner runner(lib, dvfs, cfg);

    Table t({"Combination", "trace W", "full W", "dPower",
             "trace BIPS", "full BIPS", "dPerf", "bus q [ns]"});
    RunningStat dp, df;
    double worst_perf = 0.0;
    for (const auto &[key, combo] : benchmarkCombinations()) {
        if (key.rfind("8way", 0) == 0)
            continue; // keep the detailed runs affordable
        const SimResult &tr = runner.reference(combo);

        FullSimConfig fcfg;
        fcfg.lengthScale = scale;
        CmpSystem sys(combo, dvfs, fcfg);
        auto fr = sys.runStatic(
            std::vector<PowerMode>(combo.size(), modes::Turbo));

        double dpow =
            fr.avgCorePowerW() / tr.avgCorePowerW() - 1.0;
        double dperf = fr.chipBips() / tr.chipBips() - 1.0;
        dp.add(dpow);
        df.add(dperf);
        worst_perf = std::min(worst_perf, dperf);
        t.addRow({key, Table::num(tr.avgCorePowerW(), 2),
                  Table::num(fr.avgCorePowerW(), 2),
                  Table::pct(dpow), Table::num(tr.chipBips(), 3),
                  Table::num(fr.chipBips(), 3), Table::pct(dperf),
                  Table::num(fr.avgBusQueueNs, 2)});
    }
    t.print();
    bench::maybeCsv("sec31_validation", t);

    std::printf("\nmean power delta %.1f%% (paper: within 5%%, "
                "consistently lower); mean perf delta %.1f%% "
                "(paper: ~-9%% avg), worst %.1f%% (paper: up to "
                "~-30%% for memory-bound mixes).\n",
                dp.mean() * 100.0, df.mean() * 100.0,
                worst_perf * 100.0);
    return 0;
}
