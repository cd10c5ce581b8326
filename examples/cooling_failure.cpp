/**
 * @file
 * Scenario example: a datacenter power-capping event.
 *
 * A 4-way server chip is running a mixed SPEC-like workload when
 * part of the cooling solution fails: the platform manager cuts the
 * chip budget from 95% to 65% mid-run, then partially restores it
 * to 80% (the paper's Figure 6 scenario, extended to a two-step
 * schedule). The example compares how MaxBIPS and chip-wide DVFS
 * ride through the event and prints a power/mode timeline.
 *
 *   $ ./cooling_failure [scale]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "metrics/experiment.hh"
#include "power/dvfs.hh"
#include "trace/phase_profile.hh"
#include "trace/workload.hh"

namespace
{

using namespace gpm;

void
report(ExperimentRunner &runner,
       const std::vector<std::string> &combo,
       const BudgetSchedule &sched, const std::string &policy)
{
    Watts ref = runner.referencePowerW(combo);
    SimResult res = runner.timeline(combo, policy, sched);

    std::printf("--- %s ---\n", policy.c_str());
    std::printf("%8s %9s %9s  modes\n", "t [us]", "power%",
                "budget%");
    for (std::size_t i = 0; i < res.timeline.size(); i += 20) {
        const auto &tp = res.timeline[i];
        std::printf("%8.0f %8.1f%% %8.1f%%  ", tp.tUs,
                    tp.totalPowerW / ref * 100.0,
                    tp.budgetW / ref * 100.0);
        for (auto m : tp.modes)
            std::printf("%c", "TE2"[m]);
        std::printf("\n");
    }
    // Over-budget exposure: time integral of power above budget.
    double exposure = 0.0;
    double perf = 0.0;
    for (const auto &tp : res.timeline) {
        exposure +=
            std::max(0.0, tp.totalPowerW - tp.budgetW) * 50e-6;
        for (double b : tp.coreBips)
            perf += b;
    }
    std::printf("end %.0f us; over-budget exposure %.3f J; "
                "mean chip BIPS %.3f\n\n",
                res.endUs, exposure,
                perf / static_cast<double>(res.timeline.size()));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gpm;
    double scale = argc > 1 ? std::atof(argv[1]) : 0.25;

    DvfsTable dvfs = DvfsTable::classic3();
    ProfileLibrary lib(dvfs, scale);
    lib.attachStore("gpm_profiles");
    lib.buildSuite();
    ExperimentRunner runner(lib, dvfs);

    std::vector<std::string> combo{"ammp", "mcf", "crafty", "art"};

    // Budget schedule: healthy -> cooling failure -> partial fix.
    double t1 = 4000.0 * scale * 4.0;
    double t2 = 8000.0 * scale * 4.0;
    BudgetSchedule sched(
        {{0.0, 0.95}, {t1, 0.65}, {t2, 0.80}});

    std::printf("Cooling-failure scenario on (ammp, mcf, crafty, "
                "art): budget 95%% -> 65%% at %.0f us -> 80%% at "
                "%.0f us\nModes: T=Turbo, E=Eff1, 2=Eff2\n\n",
                t1, t2);
    report(runner, combo, sched, "MaxBIPS");
    report(runner, combo, sched, "ChipWideDVFS");

    std::printf("MaxBIPS rides the cap with per-core modes "
                "(memory-bound cores absorb the cut); chip-wide "
                "DVFS overshoots or leaves slack because all cores "
                "move together.\n");
    return 0;
}
