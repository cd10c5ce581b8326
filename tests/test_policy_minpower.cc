/** @file Unit and property tests for the MinPower dual policy. */

#include <gtest/gtest.h>

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

class MinPowerSweep
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
};

TEST_P(MinPowerSweep, ExhaustiveMatchesBruteForce)
{
    auto [seed, frac] = GetParam();
    ModeMatrix m = randomMatrix(5, 3, seed + 100);
    std::vector<PowerMode> turbo(5, 0), slow(5, 2);
    double target = m.totalBips(slow) +
        frac * (m.totalBips(turbo) - m.totalBips(slow));
    auto assign = MaxBipsPolicy::solveMinPower(m, target);
    EXPECT_GE(m.totalBips(assign) + 1e-9, target);
    EXPECT_EQ(assign, bruteForce(m, target, Objective::MinPower));
}

TEST_P(MinPowerSweep, BnbMatchesExhaustive)
{
    // The branch-and-bound dual returns the exhaustive answer
    // assignment for assignment, exact ties included, on tie-heavy
    // matrices up to 8 cores x 5 modes; most targets sit exactly on
    // some assignment's total BIPS or on the 1e-12 slack edge.
    auto [seed, frac] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed) + 200);
    int mismatches = 0;
    for (int i = 0; i < 100; i++) {
        ModeMatrix m = tieHeavyMatrix(1 + rng.below(8), 2 + rng.below(4),
                                      rng.next64());
        double target = m.totalBips(randomAssignment(m, rng));
        if (i % 3 == 1)
            target += 1e-12;
        else if (i % 3 == 2)
            target *= frac * 1.2;
        if (MaxBipsPolicy::solveMinPower(m, target) !=
            bruteForce(m, target, Objective::MinPower))
            mismatches++;
    }
    EXPECT_EQ(mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MinPowerSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Values(0.1, 0.5, 0.9, 1.0)));

TEST(MinPowerPolicy, TrivialTargetAllSlowest)
{
    ModeMatrix m = randomMatrix(4, 3, 31);
    auto assign = MaxBipsPolicy::solveMinPower(m, 0.0);
    // Zero target: cheapest possible = all-slowest (monotone).
    for (auto a : assign)
        EXPECT_EQ(a, 2);
}

TEST(MinPowerPolicy, UnreachableTargetBestEffortTurbo)
{
    ModeMatrix m = randomMatrix(4, 3, 32);
    auto assign = MaxBipsPolicy::solveMinPower(m, 1e9);
    for (auto a : assign)
        EXPECT_EQ(a, 0);
}

TEST(MinPowerPolicy, FullTargetNeedsAllTurbo)
{
    ModeMatrix m = randomMatrix(4, 3, 33);
    std::vector<PowerMode> turbo(4, 0);
    auto assign =
        MaxBipsPolicy::solveMinPower(m, m.totalBips(turbo) - 1e-9);
    for (auto a : assign)
        EXPECT_EQ(a, 0);
}

TEST(MinPowerPolicy, BnbScalesTo64Cores)
{
    ModeMatrix m = randomMatrix(64, 3, 55);
    std::vector<PowerMode> turbo(64, 0);
    double target = 0.95 * m.totalBips(turbo);
    auto assign = MaxBipsPolicy::solveMinPower(m, target);
    EXPECT_GE(m.totalBips(assign) + 1e-9, target);
    EXPECT_LT(m.totalPowerW(assign), m.totalPowerW(turbo));
}

TEST(MinPowerPolicy, DecideUsesPredictedMatrix)
{
    DvfsTable dvfs = DvfsTable::classic3();
    ModeMatrix m = randomMatrix(4, 3, 41);
    std::vector<CoreSample> samples(4);
    for (std::size_t c = 0; c < 4; c++) {
        samples[c].mode = modes::Turbo;
        samples[c].powerW = m.powerW(c, modes::Turbo);
        samples[c].bips = m.bips(c, modes::Turbo);
    }
    MinPowerPolicy policy(0.9);
    EXPECT_DOUBLE_EQ(policy.targetFraction(), 0.9);
    PolicyInput in;
    in.predicted = &m;
    in.samples = &samples;
    in.dvfs = &dvfs;
    auto assign = policy.decide(in);
    std::vector<PowerMode> turbo(4, 0);
    EXPECT_GE(m.totalBips(assign) + 1e-9,
              0.9 * m.totalBips(turbo));
    EXPECT_LE(m.totalPowerW(assign), m.totalPowerW(turbo));
}

TEST(MinPowerPolicy, DualityWithMaxBips)
{
    // Weak duality: MaxBIPS at budget P* (the power MinPower paid)
    // must achieve at least MinPower's BIPS.
    ModeMatrix m = randomMatrix(5, 3, 61);
    std::vector<PowerMode> turbo(5, 0);
    double target = 0.92 * m.totalBips(turbo);
    auto mp = MaxBipsPolicy::solveMinPower(m, target);
    auto mb = MaxBipsPolicy::solve(m, m.totalPowerW(mp));
    EXPECT_GE(m.totalBips(mb) + 1e-9, m.totalBips(mp));
}

TEST(MinPowerPolicy, FactoryParsesTargets)
{
    auto p = makePolicy("MinPower");
    EXPECT_STREQ(p->name(), "MinPower");
    auto q = makePolicy("MinPower85");
    auto *mp = dynamic_cast<MinPowerPolicy *>(q.get());
    ASSERT_NE(mp, nullptr);
    EXPECT_NEAR(mp->targetFraction(), 0.85, 1e-12);

    EXPECT_TRUE(isPolicyName("MinPower"));
    EXPECT_TRUE(isPolicyName("MinPower85"));
    EXPECT_TRUE(isPolicyName("MinPower100"));
    // The suffix is a whole percentage in (0, 100] in decimal
    // digits: a prefix parse would serve "MinPower90abc" under a
    // second cache key for MinPower90.
    for (const char *bad :
         {"MinPower0", "MinPower101", "MinPower90abc", "MinPower 90",
          "MinPower0x5A", "MinPower1e2", "MinPower90.0", "MinPower-5",
          "MinPower+90", "MinPower99999999999999999999"})
        EXPECT_FALSE(isPolicyName(bad)) << bad;
}

} // namespace
} // namespace gpm
