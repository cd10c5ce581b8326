/** @file Unit and property tests for the global management policies.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/policies.hh"
#include "helpers.hh"

namespace gpm
{
namespace
{

using test::bruteForce;
using test::Objective;
using test::randomAssignment;
using test::randomMatrix;
using test::tieHeavyMatrix;

PolicyInput
makeInput(const ModeMatrix &m, const std::vector<CoreSample> &s,
          Watts budget, const DvfsTable &dvfs)
{
    PolicyInput in;
    in.predicted = &m;
    in.samples = &s;
    in.budgetW = budget;
    in.dvfs = &dvfs;
    return in;
}

std::vector<CoreSample>
samplesFromMatrix(const ModeMatrix &m, PowerMode cur = 0)
{
    std::vector<CoreSample> s(m.numCores());
    for (std::size_t c = 0; c < s.size(); c++) {
        s[c].mode = cur;
        s[c].powerW = m.powerW(c, cur);
        s[c].bips = m.bips(c, cur);
        s[c].memIntensity = 1.0 / (1.0 + m.bips(c, cur));
    }
    return s;
}

class PolicyBudgetSweep
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
  protected:
    DvfsTable dvfs = DvfsTable::classic3();
};

TEST_P(PolicyBudgetSweep, AllPoliciesFitBudgetWhenFeasible)
{
    auto [seed, budget_frac] = GetParam();
    ModeMatrix m = randomMatrix(4, 3, seed);
    // Budget between the all-slowest floor and all-fastest total.
    std::vector<PowerMode> floor_assign(4, 2), turbo_assign(4, 0);
    Watts lo = m.totalPowerW(floor_assign);
    Watts hi = m.totalPowerW(turbo_assign);
    Watts budget = lo + budget_frac * (hi - lo);

    auto samples = samplesFromMatrix(m);
    for (const char *name :
         {"MaxBIPS", "Priority", "PullHiPushLo", "ChipWideDVFS"}) {
        auto policy = makePolicy(name);
        auto in = makeInput(m, samples, budget, dvfs);
        auto assign = policy->decide(in);
        ASSERT_EQ(assign.size(), 4u) << name;
        EXPECT_LE(m.totalPowerW(assign), budget + 1e-9)
            << name << " busts the budget";
    }
}

TEST_P(PolicyBudgetSweep, MaxBipsMatchesBruteForce)
{
    auto [seed, budget_frac] = GetParam();
    ModeMatrix m = randomMatrix(5, 3, seed + 1000);
    std::vector<PowerMode> floor_assign(5, 2), turbo_assign(5, 0);
    Watts lo = m.totalPowerW(floor_assign);
    Watts hi = m.totalPowerW(turbo_assign);
    Watts budget = lo + budget_frac * (hi - lo);

    EXPECT_EQ(MaxBipsPolicy::solve(m, budget),
              bruteForce(m, budget, Objective::MaxBips));
}

TEST_P(PolicyBudgetSweep, BranchAndBoundEqualsExhaustive)
{
    // The branch-and-bound search returns the exhaustive answer
    // assignment for assignment, exact ties included, on tie-heavy
    // matrices up to 8 cores x 5 modes; most budgets sit exactly on
    // (or a rounding hair off) some assignment's total power.
    auto [seed, budget_frac] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed) + 2000);
    int mismatches = 0;
    for (int i = 0; i < 100; i++) {
        ModeMatrix m = tieHeavyMatrix(1 + rng.below(8), 2 + rng.below(4),
                                      rng.next64());
        Watts budget = m.totalPowerW(randomAssignment(m, rng));
        if (i % 3 == 1)
            budget = std::nextafter(budget, 0.0);
        else if (i % 3 == 2)
            budget *= budget_frac * 1.2;
        if (MaxBipsPolicy::solve(m, budget) !=
            bruteForce(m, budget, Objective::MaxBips))
            mismatches++;
    }
    EXPECT_EQ(mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PolicyBudgetSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(0.05, 0.3, 0.6, 0.9)));

TEST(MaxBipsPolicy, InfeasibleBudgetYieldsAllSlowest)
{
    ModeMatrix m = randomMatrix(4, 3, 9);
    auto assign = MaxBipsPolicy::solve(m, 0.0);
    for (auto a : assign)
        EXPECT_EQ(a, 2);
}

TEST(MaxBipsPolicy, UnlimitedBudgetYieldsAllTurbo)
{
    ModeMatrix m = randomMatrix(4, 3, 10);
    auto assign = MaxBipsPolicy::solve(m, 1e9);
    for (auto a : assign)
        EXPECT_EQ(a, 0);
}

TEST(MaxBipsPolicy, PrefersHighBipsPerWatt)
{
    // Two cores; budget allows exactly one at Turbo. The one with
    // more BIPS to gain must get it.
    ModeMatrix m(2, 2);
    m.powerW(0, 0) = 10.0;
    m.powerW(0, 1) = 6.0;
    m.bips(0, 0) = 2.0;
    m.bips(0, 1) = 1.7;
    m.powerW(1, 0) = 10.0;
    m.powerW(1, 1) = 6.0;
    m.bips(1, 0) = 1.0;
    m.bips(1, 1) = 0.98; // memory-bound: loses almost nothing
    auto assign = MaxBipsPolicy::solve(m, 16.0);
    EXPECT_EQ(assign[0], 0); // CPU-bound gets Turbo
    EXPECT_EQ(assign[1], 1); // memory-bound throttled
}

TEST(MaxBipsPolicy, BnbScalesTo32Cores)
{
    ModeMatrix m = randomMatrix(32, 3, 77);
    std::vector<PowerMode> floor_assign(32, 2), turbo_assign(32, 0);
    Watts budget = 0.5 * (m.totalPowerW(floor_assign) +
                          m.totalPowerW(turbo_assign));
    auto assign = MaxBipsPolicy::solve(m, budget);
    EXPECT_EQ(assign.size(), 32u);
    EXPECT_LE(m.totalPowerW(assign), budget + 1e-9);
    // Must beat the trivial all-slowest solution.
    EXPECT_GT(m.totalBips(assign), m.totalBips(floor_assign));
}

TEST(ChipWidePolicy, UniformAssignment)
{
    DvfsTable dvfs = DvfsTable::classic3();
    ModeMatrix m = randomMatrix(4, 3, 11);
    auto samples = samplesFromMatrix(m);
    ChipWideDvfsPolicy policy;
    for (double f : {0.0, 0.5, 1.0}) {
        std::vector<PowerMode> floor_assign(4, 2), turbo_assign(4, 0);
        Watts lo = m.totalPowerW(floor_assign);
        Watts hi = m.totalPowerW(turbo_assign);
        auto in = makeInput(m, samples, lo + f * (hi - lo), dvfs);
        auto assign = policy.decide(in);
        for (auto a : assign)
            EXPECT_EQ(a, assign[0]);
    }
}

TEST(ChipWidePolicy, PicksFastestFittingMode)
{
    DvfsTable dvfs = DvfsTable::classic3();
    ModeMatrix m(2, 3);
    for (std::size_t c = 0; c < 2; c++) {
        m.powerW(c, 0) = 10.0;
        m.powerW(c, 1) = 8.0;
        m.powerW(c, 2) = 6.0;
        m.bips(c, 0) = 1.0;
        m.bips(c, 1) = 0.95;
        m.bips(c, 2) = 0.85;
    }
    auto samples = samplesFromMatrix(m);
    ChipWideDvfsPolicy policy;
    auto in = makeInput(m, samples, 17.0, dvfs);
    auto assign = policy.decide(in);
    EXPECT_EQ(assign[0], 1); // 2x8=16 fits; 2x10=20 does not
}

TEST(PriorityPolicy, HighestCoreFavored)
{
    DvfsTable dvfs = DvfsTable::classic3();
    // Identical cores, budget for exactly one Turbo upgrade.
    ModeMatrix m(3, 3);
    for (std::size_t c = 0; c < 3; c++) {
        m.powerW(c, 0) = 10.0;
        m.powerW(c, 1) = 8.5;
        m.powerW(c, 2) = 6.0;
        m.bips(c, 0) = 1.0;
        m.bips(c, 1) = 0.95;
        m.bips(c, 2) = 0.85;
    }
    auto samples = samplesFromMatrix(m);
    PriorityPolicy policy;
    auto in = makeInput(m, samples, 22.0, dvfs);
    auto assign = policy.decide(in);
    // Core 2 (highest priority) gets the fastest mode the budget
    // allows; lower-priority cores stay slow.
    EXPECT_LT(assign[2], assign[0]);
    EXPECT_LE(assign[2], assign[1]);
    EXPECT_LE(m.totalPowerW(assign), 22.0 + 1e-9);
}

TEST(PriorityPolicy, SkipsUnaffordableUpgradeAndContinues)
{
    DvfsTable dvfs = DvfsTable::classic3();
    // Core 1 (higher priority) is expensive to upgrade; core 0 is
    // cheap. Budget affords only the cheap upgrade: priority must
    // release it "out of order".
    ModeMatrix m(2, 2);
    m.powerW(0, 0) = 6.5;
    m.powerW(0, 1) = 6.0;
    m.bips(0, 0) = 1.0;
    m.bips(0, 1) = 0.9;
    m.powerW(1, 0) = 12.0;
    m.powerW(1, 1) = 6.0;
    m.bips(1, 0) = 1.0;
    m.bips(1, 1) = 0.9;
    auto samples = samplesFromMatrix(m);
    PriorityPolicy policy;
    auto in = makeInput(m, samples, 13.0, dvfs);
    auto assign = policy.decide(in);
    EXPECT_EQ(assign[1], 1); // can't afford 12 + 6 = 18
    EXPECT_EQ(assign[0], 0); // 6.5 + 6 = 12.5 fits
}

TEST(PullHiPushLoPolicy, SlowsHottestOnOvershoot)
{
    DvfsTable dvfs = DvfsTable::classic3();
    ModeMatrix m(2, 3);
    // Core 0 hot, core 1 cool.
    m.powerW(0, 0) = 12.0;
    m.powerW(0, 1) = 10.0;
    m.powerW(0, 2) = 7.0;
    m.powerW(1, 0) = 6.0;
    m.powerW(1, 1) = 5.0;
    m.powerW(1, 2) = 4.0;
    for (std::size_t c = 0; c < 2; c++) {
        m.bips(c, 0) = 1.0;
        m.bips(c, 1) = 0.95;
        m.bips(c, 2) = 0.85;
    }
    auto samples = samplesFromMatrix(m, 0); // both at Turbo: 18 W
    PullHiPushLoPolicy policy;
    auto in = makeInput(m, samples, 16.5, dvfs);
    auto assign = policy.decide(in);
    EXPECT_GT(assign[0], 0); // hot core slowed
    EXPECT_LE(m.totalPowerW(assign), 16.5 + 1e-9);
}

TEST(PullHiPushLoPolicy, SpeedsCoolestOnSlack)
{
    DvfsTable dvfs = DvfsTable::classic3();
    ModeMatrix m(2, 3);
    m.powerW(0, 0) = 12.0;
    m.powerW(0, 1) = 10.0;
    m.powerW(0, 2) = 7.0;
    m.powerW(1, 0) = 6.0;
    m.powerW(1, 1) = 5.0;
    m.powerW(1, 2) = 4.0;
    for (std::size_t c = 0; c < 2; c++) {
        m.bips(c, 0) = 1.0;
        m.bips(c, 1) = 0.95;
        m.bips(c, 2) = 0.85;
    }
    auto samples = samplesFromMatrix(m, 2); // both at Eff2: 11 W
    PullHiPushLoPolicy policy;
    auto in = makeInput(m, samples, 30.0, dvfs);
    auto assign = policy.decide(in);
    // Ample slack: both cores end up at Turbo.
    EXPECT_EQ(assign[0], 0);
    EXPECT_EQ(assign[1], 0);
}

TEST(PullHiPushLoPolicy, StartsFromCurrentModes)
{
    DvfsTable dvfs = DvfsTable::classic3();
    ModeMatrix m = randomMatrix(4, 3, 21);
    auto samples = samplesFromMatrix(m, 1);
    PullHiPushLoPolicy policy;
    // Budget exactly at the current (all-Eff1) total: no change
    // should be needed, and result must still fit.
    std::vector<PowerMode> eff1(4, 1);
    auto in = makeInput(m, samples, m.totalPowerW(eff1), dvfs);
    auto assign = policy.decide(in);
    EXPECT_LE(m.totalPowerW(assign), m.totalPowerW(eff1) + 1e-9);
}

TEST(OraclePolicy, UsesOracleMatrix)
{
    DvfsTable dvfs = DvfsTable::classic3();
    ModeMatrix predicted = randomMatrix(3, 3, 31);
    ModeMatrix oracle = randomMatrix(3, 3, 32);
    auto samples = samplesFromMatrix(predicted);
    OraclePolicy policy;
    EXPECT_TRUE(policy.wantsOracle());
    PolicyInput in;
    in.predicted = &predicted;
    in.oracle = &oracle;
    in.samples = &samples;
    in.dvfs = &dvfs;
    std::vector<PowerMode> floor_assign(3, 2);
    in.budgetW = oracle.totalPowerW(floor_assign) * 1.2;
    auto assign = policy.decide(in);
    EXPECT_LE(oracle.totalPowerW(assign), in.budgetW + 1e-9);
}

TEST(PolicyFactory, KnownNames)
{
    for (const char *name :
         {"MaxBIPS", "Priority", "PullHiPushLo", "ChipWideDVFS",
          "Oracle", "UniformBudget"}) {
        auto p = makePolicy(name);
        ASSERT_NE(p, nullptr);
    }
    // One exact search: the old branch-and-bound alias is gone.
    EXPECT_FALSE(isPolicyName("MaxBIPS-BnB"));
    EXPECT_STREQ(makePolicy("MaxBIPS")->name(), "MaxBIPS");
    EXPECT_STREQ(makePolicy("Oracle")->name(), "Oracle");
}

TEST(ModeMatrixTest, TotalsMatchManualSum)
{
    ModeMatrix m(2, 2);
    m.powerW(0, 0) = 1.0;
    m.powerW(0, 1) = 0.5;
    m.powerW(1, 0) = 2.0;
    m.powerW(1, 1) = 1.0;
    m.bips(0, 0) = 3.0;
    m.bips(1, 1) = 4.0;
    std::vector<PowerMode> assign{0, 1};
    EXPECT_DOUBLE_EQ(m.totalPowerW(assign), 2.0);
    EXPECT_DOUBLE_EQ(m.totalBips(assign), 7.0);
    EXPECT_EQ(m.numCores(), 2u);
    EXPECT_EQ(m.numModes(), 2u);
}

} // namespace
} // namespace gpm
