/** @file Determinism contract of ExperimentRunner::trySweep: results
 *  are bitwise-identical to a serial evaluate()/evaluateStatic()
 *  loop over the spec, at every concurrency. Uses a small shared
 *  profile scale like the other experiment tests. */

#include <gtest/gtest.h>

#include "harness.hh"
#include "metrics/experiment.hh"
#include "trace/workload.hh"
#include "util/thread_pool.hh"

namespace gpm
{
namespace
{

class SweepTest : public ::testing::Test
{
  protected:
    /** The spec used throughout: two combos, dynamic policies and a
     *  Static point, several budgets. */
    static SweepSpec
    spec()
    {
        SweepSpec s;
        s.addGrid({{"mcf", "crafty"}, {"ammp", "art"}},
                  {"MaxBIPS", "ChipWideDVFS"}, {0.75, 0.9});
        s.add({"mcf", "crafty"}, "Static", 0.85);
        s.add({"ammp", "art"}, "Oracle", 0.8);
        return s;
    }

    /** Bitwise equality of every PolicyEval field ("==" on doubles
     *  is exactly the determinism contract under test). */
    static void
    expectIdentical(const std::vector<PolicyEval> &a,
                    const std::vector<PolicyEval> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); i++) {
            SCOPED_TRACE("point " + std::to_string(i));
            EXPECT_EQ(a[i].policy, b[i].policy);
            EXPECT_EQ(a[i].budgetFrac, b[i].budgetFrac);
            EXPECT_EQ(a[i].metrics.perfDegradation,
                      b[i].metrics.perfDegradation);
            EXPECT_EQ(a[i].metrics.weightedSlowdown,
                      b[i].metrics.weightedSlowdown);
            EXPECT_EQ(a[i].metrics.weightedSpeedupLoss,
                      b[i].metrics.weightedSpeedupLoss);
            EXPECT_EQ(a[i].metrics.powerSavings,
                      b[i].metrics.powerSavings);
            EXPECT_EQ(a[i].metrics.powerOverBudget,
                      b[i].metrics.powerOverBudget);
            EXPECT_EQ(a[i].metrics.avgChipPowerW,
                      b[i].metrics.avgChipPowerW);
            EXPECT_EQ(a[i].metrics.chipBips, b[i].metrics.chipBips);
            EXPECT_EQ(a[i].predPowerError, b[i].predPowerError);
            EXPECT_EQ(a[i].predBipsError, b[i].predBipsError);
            EXPECT_EQ(a[i].managerStats.decisions,
                      b[i].managerStats.decisions);
            EXPECT_EQ(a[i].managerStats.overshoots,
                      b[i].managerStats.overshoots);
            EXPECT_EQ(a[i].managerStats.modeSwitches,
                      b[i].managerStats.modeSwitches);
        }
    }
};

TEST_F(SweepTest, SpecHelpersBuildExpectedGrid)
{
    SweepSpec s = spec();
    ASSERT_EQ(s.size(), 2u * 2u * 2u + 2u);
    // Row-major: combo outermost, budget innermost.
    EXPECT_EQ(s.points[0].policy, "MaxBIPS");
    EXPECT_EQ(s.points[0].budgetFrac, 0.75);
    EXPECT_EQ(s.points[1].budgetFrac, 0.9);
    EXPECT_EQ(s.points[2].policy, "ChipWideDVFS");
    EXPECT_EQ(s.points[4].combo,
              (std::vector<std::string>{"ammp", "art"}));
    EXPECT_EQ(s.points[8].policy, "Static");
    EXPECT_EQ(s.points[9].policy, "Oracle");
}

TEST_F(SweepTest, MatchesSerialLoopAtEveryConcurrency)
{
    SweepSpec s = spec();

    // The serial ground truth, on its own runner.
    ExperimentRunner serial_runner(test::profiles(), test::dvfs());
    std::vector<PolicyEval> serial;
    for (const auto &p : s.points)
        serial.push_back(p.policy == "Static"
                             ? serial_runner.evaluateStatic(
                                   p.combo, p.budgetFrac, p.staticFit)
                             : serial_runner.evaluate(
                                   p.combo, p.policy, p.budgetFrac));

    for (std::size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE("concurrency " + std::to_string(threads));
        // A fresh runner per concurrency so cache population order
        // is also exercised under contention.
        ExperimentRunner r(test::profiles(), test::dvfs());
        expectIdentical(serial, r.trySweep(s, threads).value());
    }
}

TEST_F(SweepTest, ManyCoreMemoFirstUseMatchesSerialLoop)
{
    // A combination's first run replays every step; the run after it
    // builds the held-mode memo, which every later run reads. Fresh
    // phase-shifted many64 runners meet both from 1, 2 and 8 threads:
    // evaluate() straight from the pool (no warm-up, so the threads
    // race to build the entry and to be the first run), the same
    // after one run (so they all race to build the memo), then
    // sweep().
    SimConfig cfg;
    cfg.phaseShiftStride = 0.1;
    SweepSpec s;
    s.addGrid({manyCoreCombo(64)}, {"WaterFill", "GreedyTurbo"},
              {0.6, 0.7, 0.8, 0.9});

    ExperimentRunner serial_runner(test::profiles(), test::dvfs(), cfg);
    std::vector<PolicyEval> serial;
    for (const auto &p : s.points)
        serial.push_back(
            serial_runner.evaluate(p.combo, p.policy, p.budgetFrac));

    auto race = [&](ExperimentRunner &r, std::size_t threads) {
        std::vector<PolicyEval> got(s.size());
        parallelFor(threads, s.size(), [&](std::size_t i) {
            const SweepPoint &p = s.points[i];
            got[i] = r.evaluate(p.combo, p.policy, p.budgetFrac);
        });
        return got;
    };
    for (std::size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE("concurrency " + std::to_string(threads));
        ExperimentRunner raced(test::profiles(), test::dvfs(), cfg);
        expectIdentical(serial, race(raced, threads));

        ExperimentRunner ran_once(test::profiles(), test::dvfs(), cfg);
        const SweepPoint &first = s.points.front();
        expectIdentical({serial.front()},
                        {ran_once.evaluate(first.combo, first.policy,
                                           first.budgetFrac)});
        expectIdentical(serial, race(ran_once, threads));

        ExperimentRunner swept(test::profiles(), test::dvfs(), cfg);
        expectIdentical(serial, swept.trySweep(s, threads).value());
    }
}

TEST_F(SweepTest, RepeatedSweepOnOneRunnerIsStable)
{
    SweepSpec s = spec();
    ExperimentRunner r(test::profiles(), test::dvfs());
    auto first = r.trySweep(s, 4).value();
    auto second = r.trySweep(s, 4).value();
    expectIdentical(first, second);
}

TEST_F(SweepTest, EmptySpecYieldsEmptyResult)
{
    ExperimentRunner r(test::profiles(), test::dvfs());
    EXPECT_TRUE(r.trySweep(SweepSpec{}, 4).value().empty());
}

TEST_F(SweepTest, TrySweepRejectsBadSpecsWithPointIndex)
{
    ExperimentRunner r(test::profiles(), test::dvfs());

    SweepSpec bad_policy;
    bad_policy.add({"mcf"}, "MaxBIPS", 0.8);
    bad_policy.add({"mcf"}, "NoSuchPolicy", 0.8);
    auto e1 = r.trySweep(bad_policy, 2);
    ASSERT_FALSE(e1.ok());
    EXPECT_EQ(e1.error().pointIndex, 1u);
    EXPECT_NE(e1.error().message.find("NoSuchPolicy"),
              std::string::npos);

    SweepSpec bad_combo;
    bad_combo.add({"mcf", "nosuchbench"}, "MaxBIPS", 0.8);
    auto e2 = r.trySweep(bad_combo, 2);
    ASSERT_FALSE(e2.ok());
    EXPECT_EQ(e2.error().pointIndex, 0u);
    EXPECT_NE(e2.error().message.find("nosuchbench"),
              std::string::npos);

    SweepSpec empty_combo;
    empty_combo.add({}, "MaxBIPS", 0.8);
    EXPECT_FALSE(r.trySweep(empty_combo, 2).ok());

    SweepSpec bad_budget;
    bad_budget.add({"mcf"}, "MaxBIPS", 0.0);
    EXPECT_FALSE(r.trySweep(bad_budget, 2).ok());
}

TEST_F(SweepTest, TrySweepMatchesSweepOnValidSpecs)
{
    SweepSpec s;
    s.add({"mcf", "crafty"}, "MaxBIPS", 0.8);
    s.add({"mcf", "crafty"}, "Static", 0.85);
    ExperimentRunner r(test::profiles(), test::dvfs());
    auto tried = r.trySweep(s, 2);
    ASSERT_TRUE(tried.ok());
    expectIdentical(r.trySweep(s, 2).value(), tried.value());
}

TEST_F(SweepTest, CancelTokenStopsSweepBetweenPoints)
{
    SweepSpec s = spec();
    ExperimentRunner r(test::profiles(), test::dvfs());

    // A pre-cancelled token: the sweep abandons the spec at its
    // first checkpoint and reports the cancellation.
    CancelToken cancelled;
    cancelled.cancel();
    auto tried = r.trySweep(s, 2, &cancelled);
    ASSERT_FALSE(tried.ok());
    EXPECT_TRUE(tried.error().cancelled);
    EXPECT_NE(tried.error().message.find("cancelled"),
              std::string::npos);

    // An expired deadline behaves exactly like cancel().
    CancelToken expired;
    expired.setDeadlineAfterMs(0.0);
    EXPECT_TRUE(expired.cancelled());
    EXPECT_FALSE(r.trySweep(s, 2, &expired).ok());

    // A live token (and a far-future deadline) is a no-op: same
    // bytes as an uncancelled sweep.
    CancelToken live;
    live.setDeadlineAfterMs(600000.0);
    auto ok = r.trySweep(s, 2, &live);
    ASSERT_TRUE(ok.ok());
    EXPECT_FALSE(live.cancelled());
    expectIdentical(r.trySweep(s, 2).value(), ok.value());
}

TEST_F(SweepTest, ConcurrentRunnersShareOneProfileLibrary)
{
    // Two runners sweeping through the same ProfileLibrary at once:
    // the library's internal locking must keep profiles consistent.
    SweepSpec s;
    s.addGrid({{"mcf", "art"}}, {"MaxBIPS"}, {0.8, 0.9});
    ExperimentRunner a(test::profiles(), test::dvfs());
    ExperimentRunner b(test::profiles(), test::dvfs());
    std::vector<PolicyEval> ra, rb;
    ThreadPool pool(2);
    pool.parallelFor(2, [&](std::size_t i) {
        (i == 0 ? ra : rb) = (i == 0 ? a : b).trySweep(s, 2).value();
    });
    expectIdentical(ra, rb);
}

} // namespace
} // namespace gpm
