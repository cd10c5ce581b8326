/**
 * @file
 * Quickstart: the smallest useful gpm program.
 *
 * Builds profiles for a 4-way CMP running (ammp, mcf, crafty, art),
 * runs the MaxBIPS global power manager against an 80% chip power
 * budget, and prints what it cost relative to unmanaged all-Turbo
 * execution.
 *
 *   $ ./quickstart [budget-fraction] [scale]
 *
 * `scale` (default 0.25) shortens the synthetic workloads so the
 * example runs in a few seconds; pass 1.0 for full-length runs.
 */

#include <cstdio>
#include <cstdlib>

#include "metrics/experiment.hh"
#include "power/dvfs.hh"
#include "trace/phase_profile.hh"
#include "trace/workload.hh"
#include "util/logging.hh"

int
main(int argc, char **argv)
{
    using namespace gpm;

    double budget = argc > 1 ? std::atof(argv[1]) : 0.8;
    double scale = argc > 2 ? std::atof(argv[2]) : 0.25;
    if (budget <= 0.0 || scale <= 0.0)
        fatal("usage: %s [budget-fraction] [scale]", argv[0]);

    // 1. The paper's DVFS table: Turbo / Eff1 / Eff2.
    DvfsTable dvfs = DvfsTable::classic3();

    // 2. Profile the workloads once per mode on the detailed core
    //    model (cached across runs in ./gpm_profiles).
    ProfileLibrary lib(dvfs, scale);
    lib.attachStore("gpm_profiles");
    lib.buildSuite();

    // 3. Evaluate MaxBIPS under the budget on a 4-way CMP.
    ExperimentRunner runner(lib, dvfs);
    std::vector<std::string> combo{"ammp", "mcf", "crafty", "art"};
    PolicyEval ev = runner.evaluate(combo, "MaxBIPS", budget);

    std::printf("workloads      : ammp, mcf, crafty, art (4-way)\n");
    std::printf("budget         : %.1f%% of all-Turbo power "
                "(%.1f W)\n",
                budget * 100.0,
                budget * runner.referencePowerW(combo));
    std::printf("policy         : %s\n", ev.policy.c_str());
    std::printf("chip power     : %.1f W (%.1f%% of budget)\n",
                ev.metrics.avgChipPowerW,
                ev.metrics.powerOverBudget * 100.0);
    std::printf("throughput     : %.3f BIPS\n", ev.metrics.chipBips);
    std::printf("perf cost      : %.2f%% vs all-Turbo\n",
                ev.metrics.perfDegradation * 100.0);
    std::printf("power saved    : %.1f%%  (ratio %.1f:1)\n",
                ev.metrics.powerSavings * 100.0,
                ev.metrics.powerSavings /
                    std::max(ev.metrics.perfDegradation, 1e-6));
    std::printf("mode switches  : %llu over %llu decisions\n",
                static_cast<unsigned long long>(
                    ev.managerStats.modeSwitches),
                static_cast<unsigned long long>(
                    ev.managerStats.decisions));
    return 0;
}
