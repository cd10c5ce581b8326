/**
 * @file
 * API example: defining your own workload.
 *
 * The suite workloads are statistical stand-ins for SPEC CPU2000,
 * but the same machinery manages *any* WorkloadSpec. This example
 * models a latency-critical "service" thread (bursty: alternating
 * request-processing and idle-spin phases) co-located with a
 * best-effort "batch" thread (a dense FP kernel), profiles
 * them directly with the Profiler (no library involved), and shows
 * how a chip budget squeezes the two under MaxBIPS vs Priority —
 * Priority protecting the service thread on the high-priority core.
 *
 *   $ ./custom_workload
 */

#include <cstdio>

#include "core/global_manager.hh"
#include "metrics/metrics.hh"
#include "power/dvfs.hh"
#include "sim/cmp_sim.hh"
#include "trace/profiler.hh"
#include "trace/workload.hh"
#include "util/table.hh"

namespace
{

using namespace gpm;

WorkloadSpec
serviceThread()
{
    WorkloadSpec w;
    w.name = "service";
    w.isFp = false;
    w.memClass = "bursty latency-critical";
    w.totalInsts = 6'000'000;
    w.seed = 9001;
    // Request burst: branchy integer work chasing session state
    // through the cache hierarchy (some DRAM touches).
    PhaseSpec burst{};
    burst.lengthInsts = 400'000;
    burst.fracLoad = 0.30;
    burst.fracStore = 0.12;
    burst.fracBranch = 0.14;
    burst.fracFp = 0.0;
    burst.depP = 0.25;
    burst.branchBias = 0.93;
    burst.hotFrac = 0.75;
    burst.warmFrac = 0.20;
    burst.coldFrac = 0.05;
    burst.chainFrac = 0.30;
    // Poll loop: tight, predictable, tiny footprint.
    PhaseSpec poll{};
    poll.lengthInsts = 150'000;
    poll.fracLoad = 0.15;
    poll.fracStore = 0.05;
    poll.fracBranch = 0.20;
    poll.fracFp = 0.0;
    poll.depP = 0.10;
    poll.branchBias = 0.99;
    poll.hotFrac = 1.0;
    w.phases = {burst, poll};
    return w;
}

WorkloadSpec
batchThread()
{
    WorkloadSpec w;
    w.name = "batch";
    w.isFp = true;
    w.memClass = "compute-bound best-effort";
    w.totalInsts = 7'000'000;
    w.seed = 9002;
    // Dense FP kernel over a cache-resident tile: converts watts to
    // instructions extremely well — exactly what MaxBIPS favours.
    PhaseSpec kernel{};
    kernel.lengthInsts = 1'000'000;
    kernel.fracLoad = 0.20;
    kernel.fracStore = 0.08;
    kernel.fracBranch = 0.06;
    kernel.fracFp = 0.7;
    kernel.fracFpDiv = 0.005;
    kernel.depP = 0.06;
    kernel.dep2Prob = 0.25;
    kernel.hotFrac = 1.0;
    kernel.branchBias = 0.98;
    w.phases = {kernel};
    return w;
}

} // namespace

int
main()
{
    using namespace gpm;
    DvfsTable dvfs = DvfsTable::classic3();
    Profiler prof(dvfs);

    std::printf("profiling custom workloads on the detailed core "
                "model...\n");
    WorkloadProfile service = prof.profileWorkload(serviceThread());
    WorkloadProfile batch = prof.profileWorkload(batchThread());
    auto show = [&](const WorkloadProfile &p) {
        auto s = prof.summarize(p);
        std::printf("  %-8s: %.2f IPC, %.1f W Turbo, Eff2 costs "
                    "%.1f%% time for %.1f%% power\n",
                    p.name.c_str(), s.turboIpc, s.turboPowerW,
                    s.perfDegradation[1] * 100.0,
                    s.powerSavings[1] * 100.0);
    };
    show(service);
    show(batch);

    // Priority cores count upward: put the service thread on the
    // highest-priority core (index 1 of 2).
    std::vector<const WorkloadProfile *> chip{&batch, &service};
    SimConfig cfg;
    CmpSim sim(chip, dvfs, cfg);
    Watts ref = sim.referencePowerW();
    const SimResult &turbo = sim.reference();

    Table t({"Policy", "Budget", "service speed", "batch speed",
             "chip power"});
    for (const char *policy : {"MaxBIPS", "Priority"}) {
        for (double budget : {0.9, 0.75}) {
            GlobalManager mgr(dvfs, makePolicy(policy), 500.0, 2.0);
            SimResult r =
                sim.run(mgr, BudgetSchedule(budget), ref);
            auto speedups = threadSpeedups(r, turbo);
            t.addRow({policy, Table::pct(budget, 0),
                      Table::pct(speedups[1], 1),
                      Table::pct(speedups[0], 1),
                      Table::num(r.avgCorePowerW(), 2) + " W"});
        }
    }
    t.print();

    std::printf("\nUnder a tight budget the policies diverge: "
                "MaxBIPS throttles the *service* thread (memory "
                "stalls make it a poor watts-to-instructions "
                "converter) to keep the batch kernel fast, while "
                "Priority protects the high-priority service core "
                "and pushes the cut onto batch — pick the policy "
                "that matches what the chip is for.\n");
    return 0;
}
