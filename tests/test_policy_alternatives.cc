/** @file Unit tests for the exploration- and history-based policy
 *  alternatives of paper Section 5.5. */

#include <gtest/gtest.h>

#include "core/policies.hh"
#include "helpers.hh"

namespace gpm
{
namespace
{

using test::randomMatrix;

std::vector<CoreSample>
samplesAt(const ModeMatrix &m, const std::vector<PowerMode> &modes)
{
    std::vector<CoreSample> s(m.numCores());
    for (std::size_t c = 0; c < s.size(); c++) {
        s[c].mode = modes[c];
        s[c].powerW = m.powerW(c, modes[c]);
        s[c].bips = m.bips(c, modes[c]);
    }
    return s;
}

PolicyInput
inputFor(const ModeMatrix &m, const std::vector<CoreSample> &s,
         Watts budget, const DvfsTable &dvfs)
{
    PolicyInput in;
    in.predicted = &m;
    in.samples = &s;
    in.budgetW = budget;
    in.dvfs = &dvfs;
    return in;
}

TEST(ExplorationPolicy, SweepsAllModesSlowestFirst)
{
    DvfsTable dvfs = DvfsTable::classic3();
    ModeMatrix m = randomMatrix(3, 3, 5);
    ExplorationPolicy policy(4);
    std::vector<PowerMode> cur(3, 2);
    // First three decisions must be uniform Eff2, Eff1, Turbo.
    for (int expect = 2; expect >= 0; expect--) {
        auto samples = samplesAt(m, cur);
        auto in = inputFor(m, samples, 1e9, dvfs);
        cur = policy.decide(in);
        for (auto a : cur)
            EXPECT_EQ(static_cast<int>(a), expect);
    }
}

TEST(ExplorationPolicy, ExploitsMeasuredMatrixAfterSweep)
{
    DvfsTable dvfs = DvfsTable::classic3();
    ModeMatrix m = randomMatrix(3, 3, 6);
    ExplorationPolicy policy(4);
    std::vector<PowerMode> cur(3, 2);
    std::vector<PowerMode> floor_assign(3, 2);
    Watts budget = m.totalPowerW(floor_assign) * 1.25;
    for (int i = 0; i < 3; i++) {
        auto samples = samplesAt(m, cur);
        auto in = inputFor(m, samples, budget, dvfs);
        cur = policy.decide(in);
    }
    // Decision after the sweep: solved over exact measurements, so
    // identical to MaxBIPS on the true matrix.
    auto samples = samplesAt(m, cur);
    auto in = inputFor(m, samples, budget, dvfs);
    auto post = policy.decide(in);
    auto ideal = MaxBipsPolicy::solve(m, budget);
    EXPECT_NEAR(m.totalBips(post), m.totalBips(ideal), 1e-12);
    // ...and it holds that assignment while exploiting.
    auto samples2 = samplesAt(m, post);
    auto in2 = inputFor(m, samples2, budget, dvfs);
    auto held = policy.decide(in2);
    EXPECT_EQ(held, post);
}

TEST(ExplorationPolicy, ReExploresAfterExploitWindow)
{
    DvfsTable dvfs = DvfsTable::classic3();
    ModeMatrix m = randomMatrix(2, 3, 7);
    ExplorationPolicy policy(2); // short exploitation window
    std::vector<PowerMode> cur(2, 2);
    // Sweep (3) + decision-and-exploit (2) then sweep restarts.
    std::vector<std::vector<PowerMode>> history;
    for (int i = 0; i < 8; i++) {
        auto samples = samplesAt(m, cur);
        auto in = inputFor(m, samples, 1e9, dvfs);
        cur = policy.decide(in);
        history.push_back(cur);
    }
    // Step 5 (0-based) must be the uniform-Eff2 start of sweep #2.
    bool found_resweep = false;
    for (std::size_t i = 4; i < history.size(); i++) {
        if (history[i] ==
            std::vector<PowerMode>(2, static_cast<PowerMode>(2)))
            found_resweep = true;
    }
    EXPECT_TRUE(found_resweep);
}

TEST(HistoryPolicy, UsesRememberedMeasurementsOverScaling)
{
    DvfsTable dvfs = DvfsTable::classic3();
    // Build a "true" matrix whose Eff2 behaviour deviates from the
    // cubic scaling of its Turbo row (memory-bound core).
    ModeMatrix truth(1, 3);
    truth.powerW(0, 0) = 10.0;
    truth.powerW(0, 1) = 8.6;
    truth.powerW(0, 2) = 6.1;
    truth.bips(0, 0) = 1.0;
    truth.bips(0, 1) = 0.99; // far better than linear
    truth.bips(0, 2) = 0.97;

    HistoryPolicy policy;
    // Interval 1: measured at Eff2 -> remembered.
    auto s1 = samplesAt(truth, {2});
    ModeMatrix pred1 = randomMatrix(1, 3, 9); // arbitrary analytic
    auto in1 = inputFor(pred1, s1, 1e9, dvfs);
    policy.decide(in1);
    // Interval 2: at Turbo; budget forces Eff2-or-Eff1 choice. The
    // remembered Eff2 point (bips 0.97, power 6.1) should overlay
    // whatever the analytic matrix claims for Eff2.
    auto s2 = samplesAt(truth, {0});
    ModeMatrix pred2(1, 3);
    pred2.powerW(0, 0) = 10.0;
    pred2.powerW(0, 1) = 8.6;
    pred2.powerW(0, 2) = 6.1;
    pred2.bips(0, 0) = 1.0;
    pred2.bips(0, 1) = 0.95; // linear-scaled guesses
    pred2.bips(0, 2) = 0.85;
    auto in2 = inputFor(pred2, s2, 7.0, dvfs);
    auto assign = policy.decide(in2);
    // Only Eff2 fits 7 W either way; the point is it must not
    // crash and must fit the budget with the overlaid matrix.
    EXPECT_EQ(assign[0], 2);
}

TEST(HistoryPolicy, FallsBackToPredictionWhenUnseen)
{
    DvfsTable dvfs = DvfsTable::classic3();
    ModeMatrix m = randomMatrix(3, 3, 11);
    HistoryPolicy policy;
    auto samples = samplesAt(m, {0, 0, 0});
    std::vector<PowerMode> floor_assign(3, 2);
    Watts budget = m.totalPowerW(floor_assign) * 1.2;
    auto in = inputFor(m, samples, budget, dvfs);
    auto assign = policy.decide(in);
    // Never-visited modes use the analytic matrix: the decision is
    // exactly MaxBIPS over it (Turbo rows are remembered == exact).
    auto ideal = MaxBipsPolicy::solve(m, budget);
    EXPECT_NEAR(m.totalBips(assign), m.totalBips(ideal), 1e-12);
}

TEST(AlternativePolicies, FactoryCreates)
{
    EXPECT_STREQ(makePolicy("ExploreMaxBIPS")->name(),
                 "ExploreMaxBIPS");
    EXPECT_STREQ(makePolicy("HistoryMaxBIPS")->name(),
                 "HistoryMaxBIPS");
}

} // namespace
} // namespace gpm
