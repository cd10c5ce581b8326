/** @file Integration tests for the trace-based CMP simulator on
 *  hand-built profiles (exact expectations), and its held-mode memo
 *  against replay, on those and on a many64 chip of suite profiles. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "harness.hh"
#include "helpers.hh"
#include "sim/cmp_sim.hh"
#include "trace/workload.hh"
#include "util/rng.hh"

namespace gpm
{
namespace
{

using test::classicSyntheticProfile;
using test::syntheticProfile;

/** @p p with each chunk's time and energy scaled by a seeded factor
 *  in [0.3, 3): no two delta steps accumulate alike. */
WorkloadProfile
jittered(WorkloadProfile p, std::uint64_t seed)
{
    Rng rng(seed);
    for (ModeProfile &mp : p.modes)
        for (ChunkRecord &c : mp.chunks) {
            c.timePs = static_cast<std::uint64_t>(
                static_cast<double>(c.timePs) * rng.uniform(0.3, 3.0));
            c.energyJ *= rng.uniform(0.3, 3.0);
        }
    return p;
}

/** Every SimResult field, the timeline's too, compared with ==. */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.endUs, b.endUs);
    EXPECT_EQ(a.coreInstructions, b.coreInstructions);
    EXPECT_EQ(a.coreEnergyJ, b.coreEnergyJ);
    EXPECT_EQ(a.uncoreEnergyJ, b.uncoreEnergyJ);
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_EQ(a.managerStats.decisions, b.managerStats.decisions);
    EXPECT_EQ(a.managerStats.overshoots, b.managerStats.overshoots);
    EXPECT_EQ(a.managerStats.modeSwitches,
              b.managerStats.modeSwitches);
    EXPECT_EQ(a.predPowerError, b.predPowerError);
    EXPECT_EQ(a.predBipsError, b.predBipsError);
    EXPECT_EQ(a.peakTempC, b.peakTempC);
    EXPECT_EQ(a.timeline.cores(), b.timeline.cores());
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    auto same = [](auto x, auto y) {
        return std::equal(x.begin(), x.end(), y.begin(), y.end());
    };
    for (std::size_t i = 0; i < a.timeline.size(); i++) {
        SCOPED_TRACE("timeline step " + std::to_string(i));
        TimelinePoint x = a.timeline[i];
        TimelinePoint y = b.timeline[i];
        EXPECT_EQ(x.tUs, y.tUs);
        EXPECT_TRUE(same(x.corePowerW, y.corePowerW));
        EXPECT_TRUE(same(x.coreBips, y.coreBips));
        EXPECT_TRUE(same(x.modes, y.modes));
        EXPECT_EQ(x.totalPowerW, y.totalPowerW);
        EXPECT_EQ(x.budgetW, y.budgetW);
        EXPECT_EQ(x.hottestC, y.hottestC);
    }
}

/** Runs @p sim twice, so that it has built its held-mode memo and
 *  every later run reads it. */
void
runTwice(CmpSim &sim)
{
    const std::vector<PowerMode> turbo(sim.numCores(), modes::Turbo);
    sim.runStatic(turbo);
    sim.runStatic(turbo);
}

class CmpSimTest : public ::testing::Test
{
  protected:
    CmpSimTest() : dvfs(DvfsTable::classic3()) {}

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
    CmpSim sim({&p, &p}, dvfs);
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
    CmpSim sim({&p}, dvfs);
    auto turbo = sim.runStatic({modes::Turbo});
    auto eff2 = sim.runStatic({modes::Eff2});
    EXPECT_NEAR(eff2.endUs / turbo.endUs, 1.0 / 0.85, 0.03);
    EXPECT_LT(eff2.avgCorePowerW(), turbo.avgCorePowerW());
}

TEST_F(CmpSimTest, FirstDoneStopsAtShortestWorkload)
{
    auto p_long = classicSyntheticProfile(400, 10.0, 1e-4);
    auto p_short = classicSyntheticProfile(100, 10.0, 1e-4);
    CmpSim sim({&p_long, &p_short}, dvfs);
    auto r = sim.runStatic({modes::Turbo, modes::Turbo});
    EXPECT_NEAR(r.endUs, 1000.0, 50.1);
    EXPECT_FALSE(r.finished[0]);
    EXPECT_TRUE(r.finished[1]);
}

TEST_F(CmpSimTest, ReferencePowerIsAllTurboCorePower)
{
    auto p = classicSyntheticProfile(200, 10.0, 1e-4);
    CmpSim sim({&p, &p}, dvfs);
    // Each core: 1e-4 J / 10 us = 10 W; two cores = 20 W.
    EXPECT_NEAR(sim.referencePowerW(), 20.0, 0.2);
}

TEST_F(CmpSimTest, MaxBipsMeetsBudget)
{
    auto p = classicSyntheticProfile(400, 10.0, 1e-4);
    CmpSim sim({&p, &p, &p, &p}, dvfs);
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
    CmpSim sim({&p, &p}, dvfs);
    Watts ref = sim.referencePowerW();
    auto mgr = manager("MaxBIPS");
    BudgetSchedule budget(0.75);
    auto r = sim.run(mgr, budget, ref, true);
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
    SimConfig cfg;
    CmpSim sim({&p, &p}, dvfs, cfg);
    auto r = sim.runStatic({modes::Turbo, modes::Eff2}, true);
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
    CmpSim sim({&p, &p, &p, &p}, dvfs);
    Watts ref = sim.referencePowerW();
    auto mgr = manager("MaxBIPS");
    BudgetSchedule budget({{0.0, 0.95}, {2000.0, 0.70}});
    auto r = sim.run(mgr, budget, ref, true);
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
    SimConfig with;
    SimConfig without;
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
    SimConfig base;
    SimConfig cont;
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
    SimConfig cfg;
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

TEST_F(CmpSimTest, HeldModeMemoMatchesReplay)
{
    // Irregular chunks, distinct per core and phase-shifted, so a
    // step read from the wrong slot or a cursor handed over at the
    // wrong step changes bits.
    auto heavy = jittered(
        syntheticProfile(300, 10'000, 10.0, 1e-4,
                         {1.0, 1.0 / 0.95, 1.0 / 0.85},
                         {1.0, 0.857, 0.614}, 2'000),
        1);
    auto light = jittered(classicSyntheticProfile(250, 8.0, 1.2e-4), 2);
    auto mid = jittered(classicSyntheticProfile(320, 9.0, 1e-4), 3);
    // ~300 us at Turbo: finishes inside the memoized steps.
    auto brief = jittered(classicSyntheticProfile(30, 10.0, 1e-4), 4);
    const std::vector<const WorkloadProfile *> four = {&heavy, &light,
                                                       &mid, &heavy};
    const std::vector<const WorkloadProfile *> with_brief = {
        &heavy, &brief, &light};

    // The memo's step count, then MaxBIPS and Oracle (which peeks
    // from the cursors the memo hands over) under a budget that
    // drops mid-run, and a mixed-mode static run: each run first by
    // a fresh simulator, whose first run replays every step, then by
    // one that has run twice and so reads its memo.
    auto check = [&](const std::string &name, SimConfig cfg,
                     const std::vector<const WorkloadProfile *> &profs,
                     std::size_t steps) {
        SCOPED_TRACE(name);
        cfg.phaseShiftStride = 0.3;
        CmpSim sim(profs, dvfs, cfg);
        runTwice(sim);
        EXPECT_EQ(sim.heldModeMemo().steps(), steps);
        Watts ref = sim.referencePowerW();
        BudgetSchedule budget({{0.0, 0.85}, {1200.0, 0.7}});
        for (const char *policy : {"MaxBIPS", "Oracle"}) {
            SCOPED_TRACE(policy);
            auto mgr_a = manager(policy);
            auto mgr_b = manager(policy);
            CmpSim fresh(profs, dvfs, cfg);
            auto replayed = fresh.run(mgr_a, budget, ref, true);
            auto memoized = sim.run(mgr_b, budget, ref, true);
            expectSameResult(replayed, memoized);
            EXPECT_GT(replayed.managerStats.modeSwitches, 0u);
        }
        std::vector<PowerMode> mixed(profs.size());
        for (std::size_t c = 0; c < mixed.size(); c++)
            mixed[c] = static_cast<PowerMode>(c % dvfs.numModes());
        CmpSim fresh(profs, dvfs, cfg);
        expectSameResult(fresh.runStatic(mixed, true),
                         sim.runStatic(mixed, true));
    };

    constexpr std::size_t cap = HeldModeMemo::maxSteps;
    SimConfig cfg;
    check("defaults", cfg, four, cap);
    check("a core finishing inside the memo", cfg, with_brief, cap);

    cfg = SimConfig{};
    cfg.deltaSimUs = 30.0;
    cfg.exploreUs = 500.0;
    // Decisions at steps 17 and 34: the memo ends mid-interval.
    check("deltaSimUs 30, exploreUs 500", cfg, four, cap);

    cfg = SimConfig{};
    cfg.sensorNoise = 0.05;
    check("sensorNoise", cfg, four, cap);

    cfg = SimConfig{};
    cfg.trackThermal = true;
    check("trackThermal", cfg, four, cap);

    // Dilation follows the chip's traffic: no step can be memoized.
    cfg = SimConfig{};
    cfg.contention = true;
    check("contention", cfg, four, 0);
}

TEST_F(CmpSimTest, BuildsItsMemoOnItsSecondRun)
{
    auto p = classicSyntheticProfile(400, 10.0, 1e-4);
    CmpSim sim({&p, &p}, dvfs);
    EXPECT_EQ(sim.heldModeMemo().steps(), 0u);
    // The reference is not a run.
    const Watts ref = sim.referencePowerW();
    EXPECT_EQ(sim.heldModeMemo().steps(), 0u);
    auto mgr = manager("MaxBIPS");
    sim.run(mgr, BudgetSchedule(0.8), ref);
    EXPECT_EQ(sim.heldModeMemo().steps(), 0u);
    sim.runStatic({modes::Turbo, modes::Eff2});
    EXPECT_EQ(sim.heldModeMemo().steps(), HeldModeMemo::maxSteps);
}

TEST_F(CmpSimTest, ConcurrentFirstRunsMatchReplay)
{
    // Eight threads make a fresh phase-shifted many64 simulator's
    // first runs at once: they race to be its first run, which
    // replays every step, and to build the memo the others read.
    // Each result must equal a fresh simulator's replay of the same
    // point.
    SimConfig cfg;
    cfg.phaseShiftStride = 0.1;
    std::vector<const WorkloadProfile *> profs;
    for (const auto &name : manyCoreCombo(64))
        profs.push_back(&test::profiles().get(name));
    struct Point
    {
        const char *policy;
        double budget;
    };
    const std::vector<Point> points = {
        {"WaterFill", 0.6},   {"WaterFill", 0.7},
        {"WaterFill", 0.8},   {"WaterFill", 0.9},
        {"GreedyTurbo", 0.6}, {"GreedyTurbo", 0.7},
        {"GreedyTurbo", 0.8}, {"GreedyTurbo", 0.9}};
    CmpSim shared(profs, test::dvfs(), cfg);
    const Watts ref = shared.referencePowerW();
    auto runOn = [&](CmpSim &sim, const Point &p) {
        GlobalManager mgr(test::dvfs(), makePolicy(p.policy),
                          cfg.exploreUs, 2.0);
        return sim.run(mgr, BudgetSchedule(p.budget), ref, true);
    };

    std::vector<SimResult> raced(points.size());
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < points.size(); i++)
        threads.emplace_back([&, i] {
            while (!go.load())
                std::this_thread::yield();
            raced[i] = runOn(shared, points[i]);
        });
    go.store(true);
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(shared.heldModeMemo().steps(), HeldModeMemo::maxSteps);

    for (std::size_t i = 0; i < points.size(); i++) {
        SCOPED_TRACE(std::string(points[i].policy) + " at " +
                     std::to_string(points[i].budget));
        CmpSim fresh(profs, test::dvfs(), cfg);
        expectSameResult(runOn(fresh, points[i]), raced[i]);
    }
}

/** Plays a script: decision k returns script[k], and the last entry
 *  from then on. Every sample it is shown, and with @p oracle every
 *  future matrix, goes into @p seen, so two runs can be compared
 *  decision by decision. */
class ScriptedPolicy : public Policy
{
  public:
    ScriptedPolicy(std::vector<std::vector<PowerMode>> script,
                   bool oracle, std::vector<double> &seen)
        : script(std::move(script)), oracle(oracle), seen(seen)
    {
    }

    const char *name() const override { return "Scripted"; }
    bool wantsOracle() const override { return oracle; }

    std::vector<PowerMode>
    decide(const PolicyInput &in) override
    {
        for (const CoreSample &s : *in.samples)
            seen.insert(seen.end(),
                        {s.powerW, s.bips, s.memIntensity,
                         static_cast<double>(s.active)});
        if (in.oracle)
            for (std::size_t c = 0; c < in.oracle->numCores(); c++)
                for (PowerMode m = 0; m < in.oracle->numModes(); m++)
                    seen.insert(seen.end(),
                                {in.oracle->powerW(c, m),
                                 in.oracle->bips(c, m)});
        return script[std::min(k++, script.size() - 1)];
    }

  private:
    std::vector<std::vector<PowerMode>> script;
    bool oracle;
    std::vector<double> &seen;
    std::size_t k = 0;
};

/** The first step at which core @p c runs another mode than at
 *  step 0; the timeline's length if it never does. */
std::size_t
firstSwitch(const Timeline &tl, std::size_t c)
{
    for (std::size_t i = 1; i < tl.size(); i++)
        if (tl[i].modes[c] != tl[0].modes[c])
            return i;
    return tl.size();
}

TEST_F(CmpSimTest, HeldModeMemoHandsOverEachCoreBitForBit)
{
    // Each case forces a way a core leaves the memo, asserts on the
    // replayed run's timeline that it happened, and compares the
    // memoized run with it: every SimResult field, every timeline
    // point, and every sample and Oracle matrix a decision was shown.
    auto heavy = jittered(
        syntheticProfile(300, 10'000, 10.0, 1e-4,
                         {1.0, 1.0 / 0.95, 1.0 / 0.85},
                         {1.0, 0.857, 0.614}, 2'000),
        11);
    auto light = jittered(classicSyntheticProfile(250, 8.0, 1.2e-4), 12);
    auto mid = jittered(classicSyntheticProfile(320, 9.0, 1e-4), 13);
    constexpr std::size_t cap = HeldModeMemo::maxSteps;
    constexpr PowerMode T = modes::Turbo, E1 = 1, E2 = 2;

    SimConfig cfg;
    cfg.phaseShiftStride = 0.3;
    const std::vector<const WorkloadProfile *> profs = {&heavy, &light,
                                                        &mid, &heavy};
    CmpSim sim(profs, dvfs, cfg);
    runTwice(sim);
    ASSERT_EQ(sim.heldModeMemo().steps(), cap);
    const Watts ref = sim.referencePowerW();

    // One scripted policy run by a fresh simulator and by the one
    // that reads its memo.
    auto scripted = [&](const std::vector<std::vector<PowerMode>> &script,
                        bool oracle, const BudgetSchedule &budget) {
        std::vector<double> seen_a, seen_b;
        GlobalManager mgr_a(dvfs,
                            std::make_unique<ScriptedPolicy>(
                                script, oracle, seen_a),
                            500.0, 2.0);
        GlobalManager mgr_b(dvfs,
                            std::make_unique<ScriptedPolicy>(
                                script, oracle, seen_b),
                            500.0, 2.0);
        CmpSim fresh(profs, dvfs, cfg);
        SimResult replayed = fresh.run(mgr_a, budget, ref, true);
        SimResult memoized = sim.run(mgr_b, budget, ref, true);
        expectSameResult(replayed, memoized);
        EXPECT_EQ(seen_a, seen_b);
        EXPECT_FALSE(seen_a.empty());
        return replayed;
    };

    {
        SCOPED_TRACE("one core switches at the second decision, "
                     "another at the third, Oracle peeks at each");
        SimResult r = scripted(
            {{T, E1, E2, T}, {T, E2, E2, T}, {T, E2, E2, E1}}, true,
            BudgetSchedule(1.0));
        const Timeline &tl = r.timeline;
        EXPECT_EQ(firstSwitch(tl, 1), 10u);
        EXPECT_EQ(firstSwitch(tl, 3), 20u);
        // Cores 0 and 2 stay on the memo to its end, then go live.
        EXPECT_EQ(firstSwitch(tl, 0), tl.size());
        EXPECT_EQ(firstSwitch(tl, 2), tl.size());
        EXPECT_GT(tl.size(), 2 * cap);
        EXPECT_EQ(r.managerStats.decisions, (tl.size() + 9) / 10);
    }
    {
        SCOPED_TRACE("every core switches: ChipWideDVFS, budget drop");
        BudgetSchedule drop({{0.0, 1.05}, {400.0, 0.75}});
        auto mgr_a = manager("ChipWideDVFS");
        auto mgr_b = manager("ChipWideDVFS");
        CmpSim fresh(profs, dvfs, cfg);
        SimResult replayed = fresh.run(mgr_a, drop, ref, true);
        SimResult memoized = sim.run(mgr_b, drop, ref, true);
        expectSameResult(replayed, memoized);
        for (std::size_t c = 0; c < 4; c++)
            EXPECT_EQ(firstSwitch(replayed.timeline, c), 10u)
                << "core " << c;
        EXPECT_GT(replayed.timeline.size(), cap);
    }
    {
        SCOPED_TRACE("a static run longer than the memo");
        const std::vector<PowerMode> mixed = {E2, T, E1, E2};
        CmpSim fresh(profs, dvfs, cfg);
        SimResult replayed = fresh.runStatic(mixed, true);
        expectSameResult(replayed, sim.runStatic(mixed, true));
        EXPECT_GT(replayed.timeline.size(), cap);
    }
}

TEST_F(CmpSimTest, PredictionsExactWhenModesSettle)
{
    // Stationary profile and a budget that admits all-Turbo: after
    // the bootstrap decision the modes never change, the measured
    // windows are stall-free, and the cubic/linear predictions are
    // exact.
    auto p = classicSyntheticProfile(400, 10.0, 1e-4);
    CmpSim sim({&p, &p}, dvfs);
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
    CmpSim sim({&p, &p, &p, &p}, dvfs);
    Watts ref = sim.referencePowerW();
    auto mgr = manager("MaxBIPS");
    auto r = sim.run(mgr, BudgetSchedule(0.85), ref);
    EXPECT_LT(r.predPowerError, 0.06);
    EXPECT_LT(r.predBipsError, 0.08);
}

TEST_F(CmpSimTest, ChipBipsSumsCores)
{
    auto p = classicSyntheticProfile(100, 10.0, 1e-4);
    CmpSim sim({&p, &p}, dvfs);
    auto r = sim.runStatic({modes::Turbo, modes::Turbo});
    auto per_core = r.coreBips();
    EXPECT_NEAR(r.chipBips(), per_core[0] + per_core[1], 1e-9);
}

TEST_F(CmpSimTest, SensorNoisePerturbsDecisions)
{
    auto p = classicSyntheticProfile(400, 10.0, 1e-4);
    SimConfig clean;
    SimConfig noisy;
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
    SimConfig cfg;
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
    CmpSim sim({&p, &p, &p, &p}, dvfs);
    Watts ref = sim.referencePowerW();
    auto mgr = manager("Oracle");
    auto r = sim.run(mgr, BudgetSchedule(0.8), ref);
    EXPECT_LE(r.avgCorePowerW(), 0.8 * ref * 1.02);
}

} // namespace
} // namespace gpm
