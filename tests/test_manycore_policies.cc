/**
 * @file
 * Tests for the many-core policy engine: the shared MCKP kernels
 * (frontiers, heap greedy, LP bound), the three approximate policies
 * (MaxBIPS-DP, WaterFill, GreedyTurbo) and their factory names, the
 * policy feasibility contract across every registered decision
 * policy, phase-shifted profile replay (seekFraction), and the
 * many<N> scenario axis end to end through parse/validate/hash.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/mckp.hh"
#include "core/policies.hh"
#include "harness.hh"
#include "helpers.hh"
#include "service/scenario.hh"
#include "service/service.hh"
#include "sim/cmp_sim.hh"
#include "trace/workload.hh"

namespace gpm
{
namespace
{

using test::bruteForce;
using test::Objective;
using test::randomMatrix;
using test::syntheticProfile;

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

// ---------------------------------------------------------------
// MCKP kernels
// ---------------------------------------------------------------

TEST(Frontier, RecordsModesWhileBuildingHull)
{
    // Core 0: mode 1 is dominated (more power, less BIPS than mode
    // 0 after sorting); mode 3 duplicates mode 2's point exactly.
    ModeMatrix m(1, 4);
    m.powerW(0, 0) = 10.0;
    m.bips(0, 0) = 2.0;
    m.powerW(0, 1) = 9.0;
    m.bips(0, 1) = 0.5; // dominated by mode 2/3
    m.powerW(0, 2) = 6.0;
    m.bips(0, 2) = 1.5;
    m.powerW(0, 3) = 6.0;
    m.bips(0, 3) = 1.5; // exact duplicate of mode 2

    FrontierSet f = buildFrontiers(m);
    ASSERT_EQ(f.numCores(), 1u);
    ASSERT_EQ(f.sizeOf(0), 2u);
    // The duplicate resolves to the lower mode index, recorded at
    // build time rather than re-found by float comparison.
    EXPECT_EQ(f.at(0, 0).mode, 2);
    EXPECT_EQ(f.at(0, 1).mode, 0);
    EXPECT_DOUBLE_EQ(f.minTotalPowerW, 6.0);
    EXPECT_DOUBLE_EQ(f.baseTotalBips, 1.5);
    EXPECT_DOUBLE_EQ(f.minIncPowerW, 4.0);
}

TEST(Frontier, HullInvariantsHoldOnRandomMatrices)
{
    for (std::uint64_t seed = 1; seed <= 20; seed++) {
        ModeMatrix m = randomMatrix(16, 5, seed);
        FrontierSet f = buildFrontiers(m);
        ASSERT_EQ(f.numCores(), 16u);
        double min_inc = std::numeric_limits<double>::infinity();
        for (std::size_t c = 0; c < 16; c++) {
            ASSERT_GE(f.sizeOf(c), 1u);
            double prev_ratio =
                std::numeric_limits<double>::infinity();
            for (std::size_t h = 1; h < f.sizeOf(c); h++) {
                const HullPoint &a = f.at(c, h - 1);
                const HullPoint &b = f.at(c, h);
                // Power and BIPS strictly ascend along the hull.
                EXPECT_GT(b.powerW, a.powerW);
                EXPECT_GT(b.bips, a.bips);
                // Marginal BIPS-per-watt ratios never increase.
                double r = (b.bips - a.bips) / (b.powerW - a.powerW);
                EXPECT_LE(r, prev_ratio + 1e-12);
                prev_ratio = r;
                min_inc = std::min(min_inc, b.powerW - a.powerW);
            }
            // Every hull point is a real mode of the core.
            for (std::size_t h = 0; h < f.sizeOf(c); h++) {
                const HullPoint &p = f.at(c, h);
                EXPECT_DOUBLE_EQ(p.powerW, m.powerW(c, p.mode));
                EXPECT_DOUBLE_EQ(p.bips, m.bips(c, p.mode));
            }
        }
        EXPECT_DOUBLE_EQ(f.minIncPowerW, min_inc);
    }
}

TEST(GreedyUpgradeHeap, InfeasibleStartLeavesPositionsUntouched)
{
    ModeMatrix m = randomMatrix(4, 3, 7);
    FrontierSet f = buildFrontiers(m);
    std::vector<std::uint8_t> pos(4, 0);
    GreedyResult r =
        greedyUpgradeHeap(f, f.minTotalPowerW - 1.0, pos);
    EXPECT_FALSE(r.feasible);
    for (std::uint8_t p : pos)
        EXPECT_EQ(p, 0);
}

TEST(GreedyUpgradeHeap, TotalsMatchPositionsAndFitBudget)
{
    for (std::uint64_t seed = 1; seed <= 10; seed++) {
        ModeMatrix m = randomMatrix(32, 5, seed);
        FrontierSet f = buildFrontiers(m);
        Watts budget = f.minTotalPowerW * 1.15;
        std::vector<std::uint8_t> pos(32, 0);
        GreedyResult r = greedyUpgradeHeap(f, budget, pos);
        ASSERT_TRUE(r.feasible);
        double power = 0.0, bips = 0.0;
        for (std::size_t c = 0; c < 32; c++) {
            ASSERT_LT(pos[c], f.sizeOf(c));
            power += f.at(c, pos[c]).powerW;
            bips += f.at(c, pos[c]).bips;
        }
        EXPECT_NEAR(r.powerW, power, 1e-9);
        EXPECT_NEAR(r.bips, bips, 1e-9);
        EXPECT_LE(r.powerW, budget + 1e-9);

        // Deterministic: a second run from scratch is identical.
        std::vector<std::uint8_t> pos2(32, 0);
        GreedyResult r2 = greedyUpgradeHeap(f, budget, pos2);
        EXPECT_EQ(pos, pos2);
        EXPECT_DOUBLE_EQ(r.bips, r2.bips);
    }
}

TEST(MckpUpperBound, DominatesEveryFeasibleAssignment)
{
    for (std::uint64_t seed = 1; seed <= 15; seed++) {
        ModeMatrix m = randomMatrix(4, 3, seed);
        FrontierSet f = buildFrontiers(m);
        for (double frac : {1.02, 1.1, 1.3, 2.0}) {
            Watts budget = f.minTotalPowerW * frac;
            double bound = mckpUpperBound(f, budget);
            auto exact = bruteForce(m, budget, Objective::MaxBips);
            ASSERT_LE(m.totalPowerW(exact), budget);
            double best = m.totalBips(exact);
            EXPECT_GE(bound, best - 1e-9)
                << "seed " << seed << " frac " << frac;
        }
    }
}

// ---------------------------------------------------------------
// Approximate policies
// ---------------------------------------------------------------

TEST(MaxBipsDp, NearOptimalOnSmallMatrices)
{
    for (std::uint64_t seed = 1; seed <= 12; seed++) {
        ModeMatrix m = randomMatrix(6, 4, seed);
        std::vector<PowerMode> slowest(6, 3), turbo(6, 0);
        Watts lo = m.totalPowerW(slowest);
        Watts hi = m.totalPowerW(turbo);
        for (double frac : {0.1, 0.4, 0.7, 0.95}) {
            Watts budget = lo + frac * (hi - lo);
            auto dp = MaxBipsDpPolicy::solve(
                m, budget, MaxBipsDpPolicy::defaultGrid);
            double exact =
                m.totalBips(bruteForce(m, budget, Objective::MaxBips));
            EXPECT_LE(m.totalPowerW(dp), budget + 1e-9);
            // The acceptance bar for the DP engine: within 2% of
            // the true optimum at the default grid.
            EXPECT_GE(m.totalBips(dp), 0.98 * exact)
                << "seed " << seed << " frac " << frac;
        }
    }
}

TEST(MaxBipsDp, FinerGridNeverWorseOnAverage)
{
    // A denser grid must stay feasible and lose nothing on an easy
    // instance where the coarse grid already matches the optimum.
    ModeMatrix m = randomMatrix(8, 5, 99);
    std::vector<PowerMode> slowest(8, 4), turbo(8, 0);
    Watts budget = m.totalPowerW(slowest) +
        0.5 * (m.totalPowerW(turbo) - m.totalPowerW(slowest));
    auto coarse = MaxBipsDpPolicy::solve(m, budget, 16);
    auto fine = MaxBipsDpPolicy::solve(m, budget, 1024);
    EXPECT_LE(m.totalPowerW(coarse), budget + 1e-9);
    EXPECT_LE(m.totalPowerW(fine), budget + 1e-9);
    EXPECT_GE(m.totalBips(fine), 0.999 * m.totalBips(coarse));
}

TEST(ManycorePolicies, ContractAcrossAllPolicies)
{
    // The policies.hh contract, old and new engines alike: a
    // budget-feasible assignment whenever one exists, all-slowest
    // otherwise.
    const std::vector<std::string> names = {
        "MaxBIPS",     "MaxBIPS-DP",   "MaxBIPS-DP16",
        "WaterFill",   "GreedyTurbo",  "Priority",
        "PullHiPushLo", "ChipWideDVFS", "UniformBudget"};
    DvfsTable dvfs = DvfsTable::classic3();
    for (std::uint64_t seed = 1; seed <= 6; seed++) {
        ModeMatrix m = randomMatrix(8, 3, seed);
        std::vector<PowerMode> slowest(8, 2), turbo(8, 0);
        Watts lo = m.totalPowerW(slowest);
        Watts hi = m.totalPowerW(turbo);
        auto samples = samplesFromMatrix(m);
        for (double frac : {0.02, 0.35, 0.8}) {
            Watts budget = lo + frac * (hi - lo);
            for (const auto &name : names) {
                auto policy = makePolicy(name);
                PolicyInput in;
                in.predicted = &m;
                in.samples = &samples;
                in.budgetW = budget;
                in.dvfs = &dvfs;
                auto assign = policy->decide(in);
                ASSERT_EQ(assign.size(), 8u) << name;
                EXPECT_LE(m.totalPowerW(assign), budget + 1e-9)
                    << name << " busts a feasible budget";
            }
        }
        // Below the all-slowest floor nothing fits: all-slowest.
        for (const auto &name : names) {
            auto policy = makePolicy(name);
            PolicyInput in;
            in.predicted = &m;
            in.samples = &samples;
            in.budgetW = lo * 0.5;
            in.dvfs = &dvfs;
            auto assign = policy->decide(in);
            EXPECT_EQ(assign, slowest)
                << name << " must fall back to all-slowest";
        }
    }
}

TEST(ManycorePolicies, GreedyTurboMatchesHeapKernel)
{
    ModeMatrix m = randomMatrix(64, 5, 17);
    FrontierSet f = buildFrontiers(m);
    Watts budget = f.minTotalPowerW * 1.2;
    std::vector<std::uint8_t> pos(64, 0);
    greedyUpgradeHeap(f, budget, pos);
    EXPECT_EQ(GreedyTurboPolicy::solve(m, budget),
              assignmentFromPositions(f, pos));
}

TEST(PolicyFactory, ManycoreNamesAndGridSuffix)
{
    EXPECT_TRUE(isPolicyName("MaxBIPS-DP"));
    EXPECT_TRUE(isPolicyName("MaxBIPS-DP256"));
    EXPECT_TRUE(isPolicyName("WaterFill"));
    EXPECT_TRUE(isPolicyName("GreedyTurbo"));
    EXPECT_FALSE(isPolicyName("MaxBIPS-DP0"));
    EXPECT_FALSE(isPolicyName("MaxBIPS-DP1"));
    EXPECT_FALSE(isPolicyName("MaxBIPS-DPx"));
    EXPECT_FALSE(isPolicyName("MaxBIPS-DP99999999"));
    EXPECT_FALSE(isPolicyName("WaterFall"));

    EXPECT_STREQ(makePolicy("MaxBIPS-DP")->name(), "MaxBIPS-DP");
    EXPECT_STREQ(makePolicy("MaxBIPS-DP256")->name(),
                 "MaxBIPS-DP256");
    // Spelling the default grid explicitly resolves to the same
    // configuration (the canonical label drops the suffix).
    MaxBipsDpPolicy explicit_default(MaxBipsDpPolicy::defaultGrid);
    EXPECT_STREQ(explicit_default.name(), "MaxBIPS-DP");
    EXPECT_EQ(explicit_default.gridBins(),
              MaxBipsDpPolicy::defaultGrid);
}

// ---------------------------------------------------------------
// Phase-shifted profile replay
// ---------------------------------------------------------------

TEST(SeekFraction, ConservesInstructionsAndEnergy)
{
    WorkloadProfile p = syntheticProfile(
        10, 10'000, 10.0, 1e-4, {1.0, 1.2, 1.5}, {1.0, 0.8, 0.6});
    for (double f : {0.0, 0.25, 0.37, 0.999}) {
        ProfileCursor base(p);
        ProfileCursor shifted(p);
        shifted.seekFraction(f);
        double bi = 0, be = 0, si = 0, se = 0;
        // Advance both to completion in identical steps, cycling
        // modes so the wrap replay crosses mode switches too.
        for (int step = 0; !base.finished(); step++) {
            auto d = base.advance(
                7.0, static_cast<PowerMode>(step % 3));
            bi += d.instructions;
            be += d.energyJ;
        }
        for (int step = 0; !shifted.finished(); step++) {
            auto d = shifted.advance(
                7.0, static_cast<PowerMode>(step % 3));
            si += d.instructions;
            se += d.energyJ;
        }
        // A wrapped replay covers exactly the same instruction
        // stream, so totals are conserved.
        EXPECT_NEAR(si, bi, bi * 1e-9) << "f=" << f;
        EXPECT_NEAR(se, be, be * 1e-6) << "f=" << f;
        EXPECT_NEAR(shifted.instructionsDone(), si, si * 1e-9);
    }
}

TEST(SeekFraction, RewindReturnsToShiftedStart)
{
    WorkloadProfile p = syntheticProfile(
        8, 5'000, 12.0, 2e-4, {1.0, 1.3}, {1.0, 0.7});
    ProfileCursor cur(p);
    cur.seekFraction(0.6);
    auto first = cur.advance(9.0, 0);
    cur.advance(9.0, 1);
    EXPECT_GT(cur.instructionsDone(), 0.0);

    cur.rewind();
    EXPECT_EQ(cur.instructionsDone(), 0.0);
    EXPECT_FALSE(cur.finished());
    auto replay = cur.advance(9.0, 0);
    EXPECT_DOUBLE_EQ(replay.instructions, first.instructions);
    EXPECT_DOUBLE_EQ(replay.energyJ, first.energyJ);
}

// ---------------------------------------------------------------
// many<N> combination keys and scenario plumbing
// ---------------------------------------------------------------

TEST(ManyCoreCombo, ReplicatesSuiteRoundRobin)
{
    const auto &suite = spec2000Suite();
    const auto &combo = manyCoreCombo(25);
    ASSERT_EQ(combo.size(), 25u);
    for (std::size_t c = 0; c < combo.size(); c++)
        EXPECT_EQ(combo[c], suite[c % suite.size()].name);

    const auto *big = findCombination("many1024");
    ASSERT_NE(big, nullptr);
    EXPECT_EQ(big->size(), 1024u);
    EXPECT_EQ(findCombination("many64"), &manyCoreCombo(64));

    EXPECT_EQ(findCombination("many0"), nullptr);
    EXPECT_EQ(findCombination("many1025"), nullptr);
    EXPECT_EQ(findCombination("manyx"), nullptr);
    EXPECT_EQ(findCombination("many"), nullptr);
    EXPECT_EQ(findCombination("many12345"), nullptr);
}

ScenarioSpec
parseOk(const std::string &text)
{
    auto v = json::parse(text);
    EXPECT_TRUE(v.ok()) << text;
    auto r = parseScenario(v.ok() ? v.value() : json::Value());
    EXPECT_TRUE(r.ok()) << text << " -> "
                        << (r.ok() ? "" : r.error());
    return r.ok() ? r.value() : ScenarioSpec{};
}

TEST(ManycoreScenario, ManyComboAndStrideParse)
{
    ScenarioSpec s = parseOk(
        R"({"combo": "many64", "policy": "WaterFill",
            "budget": 0.8,
            "sim": {"phaseShiftStride": 0.25}})");
    EXPECT_EQ(s.combo.size(), 64u);
    EXPECT_EQ(s.policy, "WaterFill");
    EXPECT_EQ(s.phaseShiftStride, 0.25);
    EXPECT_EQ(s.simConfig().phaseShiftStride, 0.25);
}

TEST(ManycoreScenario, NewPolicyNamesValidate)
{
    for (const char *policy :
         {"MaxBIPS-DP", "MaxBIPS-DP256", "WaterFill",
          "GreedyTurbo"}) {
        ScenarioSpec s;
        s.combo = {"mcf"};
        s.policy = policy;
        s.budgets = {0.8};
        EXPECT_FALSE(validateScenario(s).has_value()) << policy;
    }
}

TEST(ManycoreScenario, StrideZeroHashesLikeAbsent)
{
    ScenarioSpec a = parseOk(
        R"({"combo": ["mcf"], "policy": "GreedyTurbo",
            "budget": 0.8})");
    ScenarioSpec b = parseOk(
        R"({"combo": ["mcf"], "policy": "GreedyTurbo",
            "budget": 0.8, "sim": {"phaseShiftStride": 0}})");
    ScenarioSpec c = parseOk(
        R"({"combo": ["mcf"], "policy": "GreedyTurbo",
            "budget": 0.8, "sim": {"phaseShiftStride": 0.5}})");
    // Explicit zero must not perturb pre-existing cache keys.
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_NE(a.hash(), c.hash());
}

TEST(ManycoreScenario, DpGridIsPartOfTheCacheKey)
{
    ScenarioSpec a = parseOk(
        R"({"combo": ["mcf"], "policy": "MaxBIPS-DP",
            "budget": 0.8})");
    ScenarioSpec b = parseOk(
        R"({"combo": ["mcf"], "policy": "MaxBIPS-DP256",
            "budget": 0.8})");
    EXPECT_NE(a.hash(), b.hash());
}

TEST(ManycoreScenario, HeldModeMemoCappedUnderClientKnobs)
{
    // An explore interval of 20,000 steps: whatever a client asks
    // for, the memo keeps its cap of steps per (core, mode).
    ScenarioSpec spec = parseOk(
        R"({"combo": "many256", "policy": "GreedyTurbo",
            "budget": 0.8,
            "sim": {"exploreUs": 1e5, "deltaSimUs": 5,
                    "phaseShiftStride": 0.1}})");
    std::vector<const WorkloadProfile *> profs;
    for (const auto &name : spec.combo)
        profs.push_back(&test::profiles().get(name));
    // A simulator that has run twice reads its memo; a fresh one's
    // first run replays every step.
    CmpSim sim(profs, test::dvfs(), spec.simConfig());
    const std::vector<PowerMode> turbo(profs.size(), modes::Turbo);
    sim.runStatic(turbo);
    sim.runStatic(turbo);
    const std::size_t steps = sim.heldModeMemo().steps();
    EXPECT_EQ(steps, HeldModeMemo::maxSteps);

    Watts ref = sim.referencePowerW();
    GlobalManager mgr_a(test::dvfs(), makePolicy(spec.policy),
                        spec.exploreUs);
    GlobalManager mgr_b(test::dvfs(), makePolicy(spec.policy),
                        spec.exploreUs);
    CmpSim fresh(profs, test::dvfs(), spec.simConfig());
    SimResult replayed = fresh.run(mgr_a, BudgetSchedule(0.8), ref);
    SimResult memoized = sim.run(mgr_b, BudgetSchedule(0.8), ref);
    // The run outlives the memo, so the cursor hand-off is covered.
    EXPECT_GT(replayed.endUs,
              static_cast<double>(steps) * spec.deltaSimUs);
    EXPECT_EQ(replayed.endUs, memoized.endUs);
    EXPECT_EQ(replayed.coreInstructions, memoized.coreInstructions);
    EXPECT_EQ(replayed.coreEnergyJ, memoized.coreEnergyJ);
    EXPECT_EQ(replayed.uncoreEnergyJ, memoized.uncoreEnergyJ);
    EXPECT_EQ(replayed.finished, memoized.finished);
    EXPECT_EQ(replayed.managerStats.modeSwitches,
              memoized.managerStats.modeSwitches);

    ScenarioService svc(test::profiles(), test::dvfs());
    auto r = svc.submit(spec);
    ASSERT_TRUE(r.ok) << r.errorCode << ": " << r.errorMessage;
    EXPECT_FALSE(r.payload.empty());
}

TEST(ManycoreScenario, RejectsBadStride)
{
    for (const char *bad :
         {R"({"combo": ["mcf"], "policy": "MaxBIPS", "budget": 0.8,
              "sim": {"phaseShiftStride": 1.0}})",
          R"({"combo": ["mcf"], "policy": "MaxBIPS", "budget": 0.8,
              "sim": {"phaseShiftStride": -0.1}})"}) {
        auto v = json::parse(bad);
        ASSERT_TRUE(v.ok());
        EXPECT_FALSE(parseScenario(v.value()).ok()) << bad;
    }
}

} // namespace
} // namespace gpm
