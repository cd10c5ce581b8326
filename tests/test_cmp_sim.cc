/** @file Integration tests for the trace-based CMP simulator on
 *  hand-built profiles (exact expectations). */

#include <gtest/gtest.h>

#include "helpers.hh"
#include "sim/cmp_sim.hh"

namespace gpm
{
namespace
{

using test::classicSyntheticProfile;
using test::syntheticProfile;

class CmpSimTest : public ::testing::Test
{
  protected:
    CmpSimTest() : dvfs(DvfsTable::classic3()) {}

    SimConfig
    quietConfig()
    {
        SimConfig cfg;
        cfg.recordTimeline = true;
        return cfg;
    }

    GlobalManager
    manager(const std::string &policy)
    {
        return GlobalManager(dvfs, makePolicy(policy), 500.0, 2.0);
    }

    DvfsTable dvfs;
};

TEST_F(CmpSimTest, StaticTurboRunMatchesProfileMath)
{
    // 200 chunks x 10 us = 2000 us at Turbo; first-done at the next
    // 50 us boundary.
    auto p = classicSyntheticProfile(200, 10.0, 1e-4);
    CmpSim sim({&p, &p}, dvfs, quietConfig());
    auto r = sim.runStatic({modes::Turbo, modes::Turbo});
    EXPECT_NEAR(r.endUs, 2000.0, 50.1);
    EXPECT_NEAR(r.coreInstructions[0], 2'000'000, 10);
    EXPECT_NEAR(r.coreEnergyJ[0], 200 * 1e-4, 1e-6);
    EXPECT_TRUE(r.finished[0]);
    EXPECT_TRUE(r.finished[1]);
}

TEST_F(CmpSimTest, StaticEff2RunsSlower)
{
    auto p = classicSyntheticProfile(200, 10.0, 1e-4);
    CmpSim sim({&p}, dvfs, quietConfig());
    auto turbo = sim.runStatic({modes::Turbo});
    auto eff2 = sim.runStatic({modes::Eff2});
    EXPECT_NEAR(eff2.endUs / turbo.endUs, 1.0 / 0.85, 0.03);
    EXPECT_LT(eff2.avgCorePowerW(), turbo.avgCorePowerW());
}

TEST_F(CmpSimTest, FirstDoneStopsAtShortestWorkload)
{
    auto p_long = classicSyntheticProfile(400, 10.0, 1e-4);
    auto p_short = classicSyntheticProfile(100, 10.0, 1e-4);
    CmpSim sim({&p_long, &p_short}, dvfs, quietConfig());
    auto r = sim.runStatic({modes::Turbo, modes::Turbo});
    EXPECT_NEAR(r.endUs, 1000.0, 50.1);
    EXPECT_FALSE(r.finished[0]);
    EXPECT_TRUE(r.finished[1]);
}

TEST_F(CmpSimTest, AllDoneRunsToLongestWorkload)
{
    auto p_long = classicSyntheticProfile(400, 10.0, 1e-4);
    auto p_short = classicSyntheticProfile(100, 10.0, 1e-4);
    SimConfig cfg = quietConfig();
    cfg.termination = SimConfig::Termination::AllDone;
    CmpSim sim({&p_long, &p_short}, dvfs, cfg);
    auto r = sim.runStatic({modes::Turbo, modes::Turbo});
    EXPECT_NEAR(r.endUs, 4000.0, 50.1);
    EXPECT_TRUE(r.finished[0]);
}

TEST_F(CmpSimTest, FixedTimeTermination)
{
    auto p = classicSyntheticProfile(1000, 10.0, 1e-4);
    SimConfig cfg = quietConfig();
    cfg.termination = SimConfig::Termination::FixedTime;
    cfg.maxTimeUs = 1234.0;
    CmpSim sim({&p}, dvfs, cfg);
    auto r = sim.runStatic({modes::Turbo});
    EXPECT_NEAR(r.endUs, 1250.0, 50.1); // rounded up to delta grid
}

TEST_F(CmpSimTest, ReferencePowerIsAllTurboCorePower)
{
    auto p = classicSyntheticProfile(200, 10.0, 1e-4);
    CmpSim sim({&p, &p}, dvfs, quietConfig());
    // Each core: 1e-4 J / 10 us = 10 W; two cores = 20 W.
    EXPECT_NEAR(sim.referencePowerW(), 20.0, 0.2);
}

TEST_F(CmpSimTest, MaxBipsMeetsBudget)
{
    auto p = classicSyntheticProfile(400, 10.0, 1e-4);
    CmpSim sim({&p, &p, &p, &p}, dvfs, quietConfig());
    Watts ref = sim.referencePowerW();
    auto mgr = manager("MaxBIPS");
    BudgetSchedule budget(0.8);
    auto r = sim.run(mgr, budget, ref);
    EXPECT_NEAR(r.avgCorePowerW() / (0.8 * ref), 1.0, 0.05);
    // Budget 80% with cubic modes: some throttling, bounded by Eff2.
    EXPECT_GT(r.endUs, 4000.0 / 1.01);
    EXPECT_LT(r.endUs, 4000.0 / 0.84);
}

TEST_F(CmpSimTest, TimelineRecordsBudgetAndModes)
{
    auto p = classicSyntheticProfile(400, 10.0, 1e-4);
    CmpSim sim({&p, &p}, dvfs, quietConfig());
    Watts ref = sim.referencePowerW();
    auto mgr = manager("MaxBIPS");
    BudgetSchedule budget(0.75);
    auto r = sim.run(mgr, budget, ref);
    ASSERT_FALSE(r.timeline.empty());
    for (const auto &tp : r.timeline) {
        EXPECT_EQ(tp.corePowerW.size(), 2u);
        EXPECT_EQ(tp.modes.size(), 2u);
        EXPECT_NEAR(tp.budgetW, 0.75 * ref, 1e-9);
    }
}

TEST_F(CmpSimTest, TimelineEnergyConsistentWithTotals)
{
    auto p = classicSyntheticProfile(200, 10.0, 1e-4);
    SimConfig cfg = quietConfig();
    CmpSim sim({&p, &p}, dvfs, cfg);
    auto r = sim.runStatic({modes::Turbo, modes::Eff2});
    double timeline_j = 0.0;
    for (const auto &tp : r.timeline)
        for (double w : tp.corePowerW)
            timeline_j += w * cfg.deltaSimUs * 1e-6;
    double total_j = r.coreEnergyJ[0] + r.coreEnergyJ[1];
    EXPECT_NEAR(timeline_j, total_j, total_j * 0.01);
}

TEST_F(CmpSimTest, BudgetDropIsFollowed)
{
    auto p = classicSyntheticProfile(600, 10.0, 1e-4);
    CmpSim sim({&p, &p, &p, &p}, dvfs, quietConfig());
    Watts ref = sim.referencePowerW();
    auto mgr = manager("MaxBIPS");
    BudgetSchedule budget({{0.0, 0.95}, {2000.0, 0.70}});
    auto r = sim.run(mgr, budget, ref);
    // Compare average power in the two regions.
    double e1 = 0.0, t1 = 0.0, e2 = 0.0, t2 = 0.0;
    for (const auto &tp : r.timeline) {
        double w = 0.0;
        for (double c : tp.corePowerW)
            w += c;
        if (tp.tUs < 2000.0) {
            e1 += w;
            t1 += 1;
        } else if (tp.tUs > 2500.0) {
            e2 += w;
            t2 += 1;
        }
    }
    ASSERT_GT(t1, 0.0);
    ASSERT_GT(t2, 0.0);
    EXPECT_LT(e2 / t2, 0.76 * ref);
    EXPECT_GT(e1 / t1, 0.80 * ref);
}

TEST_F(CmpSimTest, TransitionStallsExtendRuntime)
{
    auto p = classicSyntheticProfile(400, 10.0, 1e-4);
    SimConfig with = quietConfig();
    SimConfig without = quietConfig();
    without.stallDuringTransitions = false;
    // Oscillating budget forces mode switches at every explore.
    std::vector<std::pair<MicroSec, double>> steps;
    for (int i = 0; i < 40; i++)
        steps.push_back({i * 500.0, i % 2 ? 0.7 : 1.0});
    CmpSim sim_a({&p}, dvfs, with);
    CmpSim sim_b({&p}, dvfs, without);
    Watts ref = sim_a.referencePowerW();
    auto mgr_a = manager("MaxBIPS");
    auto mgr_b = manager("MaxBIPS");
    auto ra = sim_a.run(mgr_a, BudgetSchedule(steps), ref);
    auto rb = sim_b.run(mgr_b, BudgetSchedule(steps), ref);
    EXPECT_GT(ra.endUs, rb.endUs);
    EXPECT_GT(ra.managerStats.modeSwitches, 4u);
}

TEST_F(CmpSimTest, ContentionSlowsMemoryHeavyCores)
{
    // Profiles with substantial per-chunk miss traffic.
    auto p = syntheticProfile(300, 10'000, 10.0, 1e-4,
                              {1.0, 1.0 / 0.95, 1.0 / 0.85},
                              {1.0, 0.857, 0.614}, 2'000);
    SimConfig base = quietConfig();
    SimConfig cont = quietConfig();
    cont.contention = true;
    CmpSim sim_a({&p, &p, &p, &p}, dvfs, base);
    CmpSim sim_b({&p, &p, &p, &p}, dvfs, cont);
    auto ra = sim_a.runStatic(std::vector<PowerMode>(4, 0));
    auto rb = sim_b.runStatic(std::vector<PowerMode>(4, 0));
    EXPECT_GT(rb.endUs, ra.endUs * 1.02);
    // Power drops when the same energy spreads over more time.
    EXPECT_LT(rb.avgCorePowerW(), ra.avgCorePowerW());
}

TEST_F(CmpSimTest, TimelineRecordingChangesNoResult)
{
    // The delta loop computes the values only the timeline reads
    // only when one is recorded; the run must not notice.
    auto heavy = syntheticProfile(300, 10'000, 10.0, 1e-4,
                                  {1.0, 1.0 / 0.95, 1.0 / 0.85},
                                  {1.0, 0.857, 0.614}, 2'000);
    auto light = classicSyntheticProfile(250, 8.0, 1.2e-4);
    SimConfig cfg = quietConfig();
    cfg.contention = true;
    CmpSim sim({&heavy, &light, &heavy, &light}, dvfs, cfg);
    Watts ref = sim.referencePowerW();
    auto mgr_a = manager("MaxBIPS");
    auto mgr_b = manager("MaxBIPS");
    auto with = sim.run(mgr_a, BudgetSchedule(0.8), ref, true);
    auto without = sim.run(mgr_b, BudgetSchedule(0.8), ref, false);
    EXPECT_FALSE(with.timeline.empty());
    EXPECT_TRUE(without.timeline.empty());
    EXPECT_GT(with.managerStats.modeSwitches, 0u);
    EXPECT_EQ(with.endUs, without.endUs);
    EXPECT_EQ(with.coreInstructions, without.coreInstructions);
    EXPECT_EQ(with.coreEnergyJ, without.coreEnergyJ);
    EXPECT_EQ(with.uncoreEnergyJ, without.uncoreEnergyJ);
    EXPECT_EQ(with.finished, without.finished);
    EXPECT_EQ(with.managerStats.decisions,
              without.managerStats.decisions);
    EXPECT_EQ(with.managerStats.overshoots,
              without.managerStats.overshoots);
    EXPECT_EQ(with.managerStats.modeSwitches,
              without.managerStats.modeSwitches);
    EXPECT_EQ(with.predPowerError, without.predPowerError);
    EXPECT_EQ(with.predBipsError, without.predBipsError);
}

TEST_F(CmpSimTest, PredictionsExactWhenModesSettle)
{
    // Stationary profile and a budget that admits all-Turbo: after
    // the bootstrap decision the modes never change, the measured
    // windows are stall-free, and the cubic/linear predictions are
    // exact.
    auto p = classicSyntheticProfile(400, 10.0, 1e-4);
    CmpSim sim({&p, &p}, dvfs, quietConfig());
    Watts ref = sim.referencePowerW();
    auto mgr = manager("MaxBIPS");
    auto r = sim.run(mgr, BudgetSchedule(1.05), ref);
    EXPECT_EQ(r.managerStats.modeSwitches, 0u);
    EXPECT_LT(r.predPowerError, 1e-6);
    EXPECT_LT(r.predBipsError, 1e-6);
}

TEST_F(CmpSimTest, PredictionErrorsBoundedUnderOscillation)
{
    // With identical cores and a budget forcing an asymmetric
    // assignment, the chosen core can rotate each interval; the
    // global stall (longest transition, all cores) then leaks a
    // small mode-blend error into the scored windows. It must stay
    // a few percent (transition/explore-scale), far below the
    // inter-mode power gaps the policies act on.
    auto p = classicSyntheticProfile(400, 10.0, 1e-4);
    CmpSim sim({&p, &p, &p, &p}, dvfs, quietConfig());
    Watts ref = sim.referencePowerW();
    auto mgr = manager("MaxBIPS");
    auto r = sim.run(mgr, BudgetSchedule(0.85), ref);
    EXPECT_LT(r.predPowerError, 0.06);
    EXPECT_LT(r.predBipsError, 0.08);
}

TEST_F(CmpSimTest, ChipBipsSumsCores)
{
    auto p = classicSyntheticProfile(100, 10.0, 1e-4);
    CmpSim sim({&p, &p}, dvfs, quietConfig());
    auto r = sim.runStatic({modes::Turbo, modes::Turbo});
    auto per_core = r.coreBips();
    EXPECT_NEAR(r.chipBips(), per_core[0] + per_core[1], 1e-9);
}

TEST_F(CmpSimTest, SensorNoisePerturbsDecisions)
{
    auto p = classicSyntheticProfile(400, 10.0, 1e-4);
    SimConfig clean = quietConfig();
    SimConfig noisy = quietConfig();
    noisy.sensorNoise = 0.10;
    CmpSim sim_a({&p, &p, &p, &p}, dvfs, clean);
    CmpSim sim_b({&p, &p, &p, &p}, dvfs, noisy);
    Watts ref = sim_a.referencePowerW();
    auto mgr_a = manager("MaxBIPS");
    auto mgr_b = manager("MaxBIPS");
    auto ra = sim_a.run(mgr_a, BudgetSchedule(0.85), ref);
    auto rb = sim_b.run(mgr_b, BudgetSchedule(0.85), ref);
    // Noise induces extra mode switches on a perfectly stationary
    // profile, where the clean controller settles immediately.
    EXPECT_GT(rb.managerStats.modeSwitches,
              ra.managerStats.modeSwitches);
    // True accounting is unaffected: energy is still physical and
    // the run still roughly fits the budget.
    EXPECT_LT(rb.avgCorePowerW(), 0.85 * ref * 1.1);
}

TEST_F(CmpSimTest, SensorNoiseDeterministicPerSeed)
{
    auto p = classicSyntheticProfile(200, 10.0, 1e-4);
    SimConfig cfg = quietConfig();
    cfg.sensorNoise = 0.05;
    CmpSim sim({&p, &p}, dvfs, cfg);
    Watts ref = sim.referencePowerW();
    auto mgr_a = manager("MaxBIPS");
    auto mgr_b = manager("MaxBIPS");
    auto ra = sim.run(mgr_a, BudgetSchedule(0.8), ref);
    auto rb = sim.run(mgr_b, BudgetSchedule(0.8), ref);
    EXPECT_DOUBLE_EQ(ra.coreInstructions[0],
                     rb.coreInstructions[0]);
    EXPECT_EQ(ra.managerStats.modeSwitches,
              rb.managerStats.modeSwitches);
}

TEST_F(CmpSimTest, OraclePolicyRunsAndMeetsBudget)
{
    auto p = classicSyntheticProfile(400, 10.0, 1e-4);
    CmpSim sim({&p, &p, &p, &p}, dvfs, quietConfig());
    Watts ref = sim.referencePowerW();
    auto mgr = manager("Oracle");
    auto r = sim.run(mgr, BudgetSchedule(0.8), ref);
    EXPECT_LE(r.avgCorePowerW(), 0.8 * ref * 1.02);
}

} // namespace
} // namespace gpm
