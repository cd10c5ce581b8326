/**
 * @file
 * Ablation: memory-model fidelity in the full-CMP configuration.
 * Table 1 models memory as a flat 77-cycle latency; real DRAM has
 * banks and row buffers, so co-runners close each other's rows and
 * queue on banks. This bench reruns the Section 3.1-style full-CMP
 * measurements with banked DRAM to show how much the flat-latency
 * simplification hides, and that it does not change who wins. The
 * eight full-CMP simulations (4 combinations x flat/banked) are
 * independent CmpSystem instances, so they fan out one per pool
 * slot.
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common.hh"
#include "fullsim/cmp_system.hh"
#include "util/table.hh"

int
main()
{
    using namespace gpm;
    const double scale = bench::scaleFromEnv("GPM_VALIDATION_SCALE", 0.02);

    bench::banner("Ablation — flat memory vs banked open-row DRAM "
                  "(full-CMP)",
                  "All-Turbo runs; row-buffer behaviour and bank "
                  "queueing vs the Table 1 flat 77 ns.");

    DvfsTable dvfs = DvfsTable::classic3();
    const std::vector<const char *> keys{"2way2", "2way4", "4way1",
                                         "4way3"};

    struct Result
    {
        double flatBips = 0.0;
        double dramBips = 0.0;
        double rowHitRate = 0.0;
        double busQueueNs = 0.0;
    };
    std::vector<Result> results(keys.size());

    // 2 * keys.size() independent simulations: even index = flat,
    // odd = banked DRAM for the same combination.
    std::size_t threads = defaultConcurrency();
    bench::WallTimer timer;
    parallelFor(threads, keys.size() * 2, [&](std::size_t i) {
        const auto &combo = combination(keys[i / 2]);
        FullSimConfig cfg;
        cfg.lengthScale = scale;
        cfg.useDram = i % 2 == 1;
        CmpSystem sys(combo, dvfs, cfg);
        auto r = sys.runStatic(
            std::vector<PowerMode>(combo.size(), modes::Turbo));
        Result &out = results[i / 2];
        if (cfg.useDram) {
            out.dramBips = r.chipBips();
            out.rowHitRate = sys.sharedL2().dram()->rowHitRate();
            out.busQueueNs = r.avgBusQueueNs;
        } else {
            out.flatBips = r.chipBips();
        }
    });
    double par_ms = timer.ms();

    Table t({"Combination", "flat BIPS", "DRAM BIPS", "delta",
             "row-hit rate", "bank+bus q [ns]"});
    for (std::size_t i = 0; i < keys.size(); i++) {
        const Result &r = results[i];
        t.addRow({keys[i], Table::num(r.flatBips, 3),
                  Table::num(r.dramBips, 3),
                  Table::pct(r.dramBips / r.flatBips - 1.0),
                  Table::pct(r.rowHitRate),
                  Table::num(r.busQueueNs, 1)});
    }
    t.print();
    bench::maybeCsv("ablation_dram", t);
    bench::appendSweepJson("ablation_dram", keys.size() * 2, threads,
                           0.0, par_ms);

    std::printf("\nExpected shape: compute-bound mixes barely "
                "notice; memory-bound mixes slow several percent "
                "more than under flat memory (random pointer "
                "chases mostly miss row buffers at 95 ns vs 77 ns "
                "flat, and hot banks queue), while streaming "
                "workloads claw some back through row-buffer "
                "hits.\n");
    return 0;
}
