/** @file Tests for the ExperimentRunner harness (caching, curves,
 *  static evaluation wiring). Uses a small shared profile scale. */

#include <gtest/gtest.h>

#include "harness.hh"
#include "metrics/experiment.hh"
#include "trace/workload.hh"

namespace gpm
{
namespace
{

TEST(ExperimentTest, ReferenceIsCachedAndStable)
{
    ExperimentRunner r(test::profiles(), test::dvfs());
    std::vector<std::string> combo{"mcf", "crafty"};
    const SimResult &a = r.reference(combo);
    const SimResult &b = r.reference(combo);
    EXPECT_EQ(&a, &b);
    EXPECT_GT(r.referencePowerW(combo), 0.0);
}

TEST(ExperimentTest, ProfilesForValidatesAndBuilds)
{
    ExperimentRunner r(test::profiles(), test::dvfs());
    auto ps = r.profilesFor({"ammp", "ammp"});
    ASSERT_EQ(ps.size(), 2u);
    EXPECT_EQ(ps[0], ps[1]); // same underlying profile object
}

TEST(ExperimentTest, CurveCoversAllBudgets)
{
    ExperimentRunner r(test::profiles(), test::dvfs());
    std::vector<std::string> combo{"mcf", "crafty"};
    SweepSpec spec;
    spec.addGrid({combo}, {"MaxBIPS"}, {0.7, 0.85, 1.0});
    auto evs = r.trySweep(spec).value();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_DOUBLE_EQ(evs[0].budgetFrac, 0.7);
    EXPECT_DOUBLE_EQ(evs[2].budgetFrac, 1.0);
    for (const auto &ev : evs)
        EXPECT_EQ(ev.policy, "MaxBIPS");
}

TEST(ExperimentTest, CurveDispatchesStatic)
{
    ExperimentRunner r(test::profiles(), test::dvfs());
    std::vector<std::string> combo{"mcf", "crafty"};
    SweepSpec spec;
    spec.add(combo, "Static", 0.85);
    auto evs = r.trySweep(spec).value();
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].policy, "Static");
}

TEST(ExperimentTest, StaticPeakFitNeverBeatsAverageFit)
{
    ExperimentRunner r(test::profiles(), test::dvfs());
    std::vector<std::string> combo{"ammp", "crafty"};
    for (double b : {0.75, 0.9}) {
        auto peak =
            r.evaluateStatic(combo, b, StaticFit::Peak);
        auto avg =
            r.evaluateStatic(combo, b, StaticFit::Average);
        EXPECT_GE(peak.metrics.perfDegradation + 1e-9,
                  avg.metrics.perfDegradation)
            << "budget " << b;
    }
}

TEST(ExperimentTest, MinPowerPolicyRunsUnderHarness)
{
    ExperimentRunner r(test::profiles(), test::dvfs());
    std::vector<std::string> combo{"ammp", "crafty"};
    auto ev = r.evaluate(combo, "MinPower90", 1.0);
    // Delivers roughly the targeted fraction of all-Turbo BIPS
    // (prediction noise at tiny scales allowed for).
    EXPECT_LT(ev.metrics.perfDegradation, 0.15);
    EXPECT_GT(ev.metrics.powerSavings, 0.0);
}

TEST(ExperimentTest, TimelineHonoursSchedule)
{
    ExperimentRunner r(test::profiles(), test::dvfs());
    std::vector<std::string> combo{"ammp", "crafty"};
    BudgetSchedule sched({{0.0, 1.0}, {300.0, 0.7}});
    auto res = r.timeline(combo, "MaxBIPS", sched);
    ASSERT_FALSE(res.timeline.empty());
    Watts ref = r.referencePowerW(combo);
    for (const auto &tp : res.timeline) {
        double expect = tp.tUs < 300.0 ? 1.0 : 0.7;
        EXPECT_NEAR(tp.budgetW / ref, expect, 1e-9);
    }
}

TEST(ExperimentTest, UniformBudgetWorseOrEqualToMaxBips)
{
    ExperimentRunner r(test::profiles(), test::dvfs());
    std::vector<std::string> combo{"ammp", "mcf", "crafty", "art"};
    double uni = 0.0, mb = 0.0;
    for (double b : {0.75, 0.85}) {
        uni += r.evaluate(combo, "UniformBudget", b)
                   .metrics.perfDegradation;
        mb += r.evaluate(combo, "MaxBIPS", b)
                  .metrics.perfDegradation;
    }
    EXPECT_GE(uni + 1e-9, mb);
}

} // namespace
} // namespace gpm
