/** @file Unit tests for the uniform per-core budgeting baseline. */

#include <gtest/gtest.h>

#include "core/policies.hh"
#include "helpers.hh"

namespace gpm
{
namespace
{

using test::randomMatrix;

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

std::vector<CoreSample>
samplesFor(const ModeMatrix &m)
{
    std::vector<CoreSample> s(m.numCores());
    for (std::size_t c = 0; c < s.size(); c++) {
        s[c].mode = modes::Turbo;
        s[c].powerW = m.powerW(c, modes::Turbo);
        s[c].bips = m.bips(c, modes::Turbo);
    }
    return s;
}

TEST(UniformBudgetPolicy, EachCoreFitsItsSlice)
{
    DvfsTable dvfs = DvfsTable::classic3();
    ModeMatrix m = randomMatrix(4, 3, 5);
    auto samples = samplesFor(m);
    UniformBudgetPolicy policy;
    std::vector<PowerMode> floor_assign(4, 2), turbo_assign(4, 0);
    double budget = 0.5 * (m.totalPowerW(floor_assign) +
                           m.totalPowerW(turbo_assign));
    auto in = inputFor(m, samples, budget, dvfs);
    auto assign = policy.decide(in);
    double slice = budget / 4.0;
    for (std::size_t c = 0; c < 4; c++) {
        if (m.powerW(c, static_cast<PowerMode>(2)) <= slice)
            EXPECT_LE(m.powerW(c, assign[c]), slice);
    }
    EXPECT_LE(m.totalPowerW(assign), budget + 1e-9);
}

TEST(UniformBudgetPolicy, CannotShareSlackAcrossCores)
{
    DvfsTable dvfs = DvfsTable::classic3();
    // Core 0 cheap, core 1 expensive. Global budget would let core 1
    // run Turbo using core 0's slack; uniform slicing cannot.
    ModeMatrix m(2, 2);
    m.powerW(0, 0) = 4.0;
    m.powerW(0, 1) = 3.0;
    m.bips(0, 0) = 1.0;
    m.bips(0, 1) = 0.9;
    m.powerW(1, 0) = 12.0;
    m.powerW(1, 1) = 7.0;
    m.bips(1, 0) = 2.0;
    m.bips(1, 1) = 1.7;
    auto samples = samplesFor(m);
    UniformBudgetPolicy uniform;
    auto in = inputFor(m, samples, 16.0, dvfs);
    auto u = uniform.decide(in);
    EXPECT_EQ(u[1], 1); // 12 W > 8 W slice
    // MaxBIPS exploits the global view.
    auto g = MaxBipsPolicy::solve(m, 16.0);
    EXPECT_EQ(g[1], 0); // 4 + 12 = 16 fits globally
    EXPECT_GT(m.totalBips(g), m.totalBips(u));
}

TEST(UniformBudgetPolicy, InfeasibleSliceFallsToSlowest)
{
    DvfsTable dvfs = DvfsTable::classic3();
    ModeMatrix m = randomMatrix(3, 3, 9);
    auto samples = samplesFor(m);
    UniformBudgetPolicy policy;
    auto in = inputFor(m, samples, 0.001, dvfs);
    auto assign = policy.decide(in);
    for (auto a : assign)
        EXPECT_EQ(a, 2);
}

TEST(UniformBudgetPolicy, FactoryCreates)
{
    auto p = makePolicy("UniformBudget");
    EXPECT_STREQ(p->name(), "UniformBudget");
    EXPECT_FALSE(p->wantsOracle());
}

} // namespace
} // namespace gpm
