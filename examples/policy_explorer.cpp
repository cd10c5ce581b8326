/**
 * @file
 * Interactive-style CLI: evaluate any policy on any workload mix at
 * any budget — the tool you reach for when deciding which global
 * management policy a design should ship with.
 *
 *   $ ./policy_explorer --policy MaxBIPS --budget 0.8 \
 *         --workloads mcf,crafty,art,sixtrack [--scale 0.25]
 *   $ ./policy_explorer --list
 *
 * Prints the full metric set (degradation, weighted slowdown,
 * budget fit, savings ratio, prediction errors) plus the per-core
 * outcome, and compares against the oracle bound.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/experiment.hh"
#include "power/dvfs.hh"
#include "trace/phase_profile.hh"
#include "trace/workload.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace
{

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

void
listWorkloads()
{
    using namespace gpm;
    Table t({"Workload", "Suite", "Class", "Minsts"});
    for (const auto &w : spec2000Suite()) {
        t.addRow({w.name, w.isFp ? "FP" : "INT", w.memClass,
                  Table::num(static_cast<double>(w.totalInsts) / 1e6,
                             0)});
    }
    t.print();
    std::printf("\nPolicies: MaxBIPS, Priority, PullHiPushLo, "
                "ChipWideDVFS, Oracle, Static\n");
    std::printf("Table 2 combinations: ");
    for (const auto &[key, combo] : benchmarkCombinations())
        std::printf("%s ", key.c_str());
    std::printf("(usable as --workloads %%key)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gpm;

    std::string policy = "MaxBIPS";
    std::string workloads = "ammp,mcf,crafty,art";
    double budget = 0.8;
    double scale = 0.25;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto want = [&](const char *flag) {
            if (arg != flag)
                return false;
            if (i + 1 >= argc)
                fatal("missing value for %s", flag);
            return true;
        };
        if (arg == "--list") {
            listWorkloads();
            return 0;
        } else if (want("--policy")) {
            policy = argv[++i];
        } else if (want("--budget")) {
            budget = std::atof(argv[++i]);
        } else if (want("--workloads")) {
            workloads = argv[++i];
        } else if (want("--scale")) {
            scale = std::atof(argv[++i]);
        } else {
            fatal("unknown argument '%s' (try --list)",
                  arg.c_str());
        }
    }

    std::vector<std::string> combo;
    if (!workloads.empty() && workloads[0] == '%')
        combo = combination(workloads.substr(1));
    else
        combo = splitCsv(workloads);
    if (combo.empty())
        fatal("no workloads given");
    for (const auto &name : combo)
        workload(name); // validates names early

    DvfsTable dvfs = DvfsTable::classic3();
    ProfileLibrary lib(dvfs, scale);
    lib.attachStore("gpm_profiles");
    lib.buildSuite();
    ExperimentRunner runner(lib, dvfs);

    // The chosen policy and the oracle bound are independent, so
    // they go through the sweep engine as a two-point spec (also
    // exercising the API this tool exists to explore).
    SweepSpec spec;
    spec.add(combo, policy, budget);
    spec.add(combo, "Oracle", budget);
    auto evals = runner.trySweep(spec);
    if (!evals.ok())
        fatal("%s", evals.error().message.c_str());
    PolicyEval ev = evals.value()[0];
    PolicyEval oracle = evals.value()[1];

    std::printf("policy %s on %zu cores @ budget %.1f%%\n\n",
                policy.c_str(), combo.size(), budget * 100.0);
    Table t({"Metric", policy, "Oracle"});
    auto row = [&](const char *name, double a, double b, int dec) {
        t.addRow({name, Table::pct(a, dec), Table::pct(b, dec)});
    };
    row("perf degradation", ev.metrics.perfDegradation,
        oracle.metrics.perfDegradation, 2);
    row("weighted slowdown", ev.metrics.weightedSlowdown,
        oracle.metrics.weightedSlowdown, 2);
    row("power / budget", ev.metrics.powerOverBudget,
        oracle.metrics.powerOverBudget, 1);
    row("power savings", ev.metrics.powerSavings,
        oracle.metrics.powerSavings, 1);
    t.addRow({"chip BIPS", Table::num(ev.metrics.chipBips, 3),
              Table::num(oracle.metrics.chipBips, 3)});
    t.print();

    if (policy != "Static") {
        std::printf("\nprediction error: power %.2f%%, BIPS %.2f%% "
                    "| %llu decisions, %llu switches, %llu "
                    "overshoots\n",
                    ev.predPowerError * 100.0,
                    ev.predBipsError * 100.0,
                    static_cast<unsigned long long>(
                        ev.managerStats.decisions),
                    static_cast<unsigned long long>(
                        ev.managerStats.modeSwitches),
                    static_cast<unsigned long long>(
                        ev.managerStats.overshoots));
    }
    return 0;
}
