/** @file Cluster budget arbitration: the frontier collapse is the
 *  exact MCKP optimum at every one of its own power levels,
 *  quantization keeps endpoints, facility allocation honors the
 *  feasible-else-all-floors contract at the cluster level, and
 *  ClusterManager runs are bitwise-deterministic across thread
 *  counts, cached on resubmit, and contain chip-sim failures as
 *  structured errors. */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "cluster/cluster_manager.hh"
#include "harness.hh"
#include "service/service.hh"
#include "trace/workload.hh"
#include "util/fault.hh"

namespace gpm
{
namespace
{

/** 3 cores x 3 modes, mode 0 fastest (highest power). */
ModeMatrix
smallMatrix()
{
    ModeMatrix m(3, 3);
    const double p[3][3] = {
        {4.0, 2.5, 1.0}, {5.0, 3.0, 2.0}, {3.5, 2.0, 1.5}};
    const double b[3][3] = {
        {8.0, 6.0, 3.0}, {9.0, 7.0, 5.0}, {6.0, 4.0, 3.2}};
    for (std::size_t c = 0; c < 3; c++)
        for (std::size_t md = 0; md < 3; md++) {
            m.powerW(c, static_cast<PowerMode>(md)) = p[c][md];
            m.bips(c, static_cast<PowerMode>(md)) = b[c][md];
        }
    return m;
}

TEST(ClusterFrontier, CollapseMatchesBruteForceOptimum)
{
    ModeMatrix m = smallMatrix();
    ChipFrontier f = collapseChipFrontier(m);

    ASSERT_GE(f.pts.size(), 2u);
    // Power- and BIPS-ascending.
    for (std::size_t i = 1; i < f.pts.size(); i++) {
        EXPECT_GT(f.pts[i].powerW, f.pts[i - 1].powerW);
        EXPECT_GT(f.pts[i].bips, f.pts[i - 1].bips);
    }

    // Every frontier point must be the exact integer MCKP optimum
    // at its own power level: enumerate all 27 assignments.
    for (const HullPoint &p : f.pts) {
        double best = 0.0;
        for (int a = 0; a < 3; a++)
            for (int b = 0; b < 3; b++)
                for (int c = 0; c < 3; c++) {
                    double pw =
                        m.powerW(0, static_cast<PowerMode>(a)) +
                        m.powerW(1, static_cast<PowerMode>(b)) +
                        m.powerW(2, static_cast<PowerMode>(c));
                    if (pw > p.powerW + 1e-9)
                        continue;
                    double bips =
                        m.bips(0, static_cast<PowerMode>(a)) +
                        m.bips(1, static_cast<PowerMode>(b)) +
                        m.bips(2, static_cast<PowerMode>(c));
                    if (bips > best)
                        best = bips;
                }
        EXPECT_NEAR(p.bips, best, 1e-9);
    }

    // Endpoints: all-slowest floor and all-hull-top best.
    EXPECT_NEAR(f.pts.front().powerW, 1.0 + 2.0 + 1.5, 1e-12);
    EXPECT_NEAR(f.pts.back().bips, 8.0 + 9.0 + 6.0, 1e-12);
}

TEST(ClusterFrontier, QuantizeKeepsEndpointsAndBound)
{
    ModeMatrix m = smallMatrix();
    ChipFrontier f = collapseChipFrontier(m);
    ASSERT_GT(f.pts.size(), 3u);

    ChipFrontier q = quantizeFrontier(f, 3);
    ASSERT_EQ(q.pts.size(), 3u);
    EXPECT_EQ(q.pts.front().powerW, f.pts.front().powerW);
    EXPECT_EQ(q.pts.back().powerW, f.pts.back().powerW);
    EXPECT_EQ(q.pts.back().bips, f.pts.back().bips);
    for (std::size_t i = 1; i < q.pts.size(); i++)
        EXPECT_GT(q.pts[i].powerW, q.pts[i - 1].powerW);

    // Already within the bound: unchanged.
    ChipFrontier same = quantizeFrontier(f, 64);
    ASSERT_EQ(same.pts.size(), f.pts.size());
    for (std::size_t i = 0; i < f.pts.size(); i++)
        EXPECT_EQ(same.pts[i].powerW, f.pts[i].powerW);
}

TEST(ClusterAllocationTest, ConservesBudgetAndFallsBackToFloors)
{
    ModeMatrix m = smallMatrix();
    ChipFrontier f = collapseChipFrontier(m);
    std::vector<ChipFrontier> chips = {f, f, f};
    const double floor_total = 3.0 * f.floorPowerW();

    for (const char *policy :
         {"MaxBIPS", "MaxBIPS-DP", "WaterFill", "GreedyTurbo"}) {
        SCOPED_TRACE(policy);
        ClusterAllocation a =
            allocateFacilityBudget(chips, floor_total * 1.8, policy);
        EXPECT_TRUE(a.feasible);
        double sum = 0.0;
        for (Watts w : a.awardsW)
            sum += w;
        EXPECT_LE(sum, floor_total * 1.8 * (1.0 + 1e-12));
        EXPECT_GT(a.predictedBips, 0.0);

        // Infeasible: every chip pinned at its floor.
        ClusterAllocation low =
            allocateFacilityBudget(chips, floor_total * 0.5, policy);
        EXPECT_FALSE(low.feasible);
        ASSERT_EQ(low.awardsW.size(), 3u);
        for (Watts w : low.awardsW)
            EXPECT_EQ(w, f.floorPowerW());
    }
}

TEST(ClusterPolicyNames, AcceptsKernelsRejectsOthers)
{
    EXPECT_TRUE(isClusterPolicyName("MaxBIPS"));
    EXPECT_TRUE(isClusterPolicyName("MaxBIPS-DP"));
    EXPECT_TRUE(isClusterPolicyName("MaxBIPS-DP128"));
    EXPECT_TRUE(isClusterPolicyName("WaterFill"));
    EXPECT_TRUE(isClusterPolicyName("GreedyTurbo"));
    EXPECT_FALSE(isClusterPolicyName("MaxBIPS-BnB"));
    EXPECT_FALSE(isClusterPolicyName("Static"));
    EXPECT_FALSE(isClusterPolicyName("Priority"));
    EXPECT_FALSE(isClusterPolicyName("Oracle"));
    EXPECT_FALSE(isClusterPolicyName(""));
}

class ClusterTest : public ::testing::Test
{
  protected:
    /** Two heterogeneous chips, three epochs. */
    static ClusterSpec
    clusterSpec()
    {
        ClusterSpec s;
        ChipSpec a;
        a.combo = {"mcf", "crafty"};
        a.policy = "MaxBIPS";
        ChipSpec b;
        b.combo = {"gcc", "mesa"};
        b.policy = "WaterFill";
        b.phaseOffset = 0.25;
        s.chips = {a, b};
        s.policy = "GreedyTurbo";
        s.epochs = 3;
        s.epochUs = 1000.0;
        s.levels = 8;
        return s;
    }

    /** The scenario-service view of the same cluster. */
    static ScenarioSpec
    scenario()
    {
        ScenarioSpec s;
        ClusterSpec cl = clusterSpec();
        s.policy = cl.policy;
        cl.policy.clear();
        s.cluster = std::move(cl);
        s.budgets = {0.8};
        return s;
    }
};

TEST_F(ClusterTest, EpochAwardsConserveFacilityBudget)
{
    ClusterManager mgr(test::profiles(), test::dvfs(), SimConfig{},
                       clusterSpec());
    auto run = mgr.run(0.8, 1);
    ASSERT_TRUE(run.ok()) << run.error().message;
    const ClusterRunResult &r = run.value();

    ASSERT_EQ(r.epochs.size(), 3u);
    ASSERT_EQ(r.chips.size(), 2u);
    EXPECT_GT(r.facilityBudgetW, 0.0);
    EXPECT_GT(r.clusterBips, 0.0);
    for (const EpochTrace &t : r.epochs) {
        ASSERT_EQ(t.awardsW.size(), 2u);
        double sum = 0.0;
        for (Watts w : t.awardsW) {
            EXPECT_GT(w, 0.0);
            sum += w;
        }
        if (t.feasible) {
            EXPECT_LE(sum,
                      r.facilityBudgetW * (1.0 + 1e-9));
        }
    }
    for (const ChipOutcome &c : r.chips) {
        EXPECT_GT(c.bips, 0.0);
        EXPECT_GT(c.refPowerW, 0.0);
        EXPECT_GT(c.awardedMeanW, 0.0);
        EXPECT_GT(c.managerStats.decisions, 0u);
    }
}

TEST_F(ClusterTest, DeterministicAcrossThreadCounts)
{
    ScenarioSpec spec = scenario();
    std::array<std::string, 3> payloads;
    std::size_t k = 0;
    for (std::size_t conc : {1u, 2u, 8u}) {
        ClusterManager mgr(test::profiles(), test::dvfs(),
                           spec.simConfig(), spec.clusterSpec());
        auto run = mgr.run(0.8, conc);
        ASSERT_TRUE(run.ok()) << run.error().message;
        payloads[k++] = serializeClusterResults(
            spec, spec.canonicalText(), {run.value()});
    }
    EXPECT_EQ(payloads[0], payloads[1]);
    EXPECT_EQ(payloads[0], payloads[2]);
}

TEST_F(ClusterTest, ChipReferencePowerIgnoresSiblingChips)
{
    // Offsets 0.3 and 0.3000004 agree to six decimals, but the chips
    // start at different instructions: each must report the
    // reference power it reports in a cluster alone.
    ChipSpec a;
    a.combo = manyCoreCombo(16);
    a.policy = "GreedyTurbo";
    a.phaseShiftStride = 0.1;
    a.phaseOffset = 0.3;
    ChipSpec b = a;
    b.phaseOffset = 0.3000004;
    auto refOf = [](std::vector<ChipSpec> chips) {
        ClusterSpec s;
        s.chips = std::move(chips);
        s.policy = "GreedyTurbo";
        s.epochs = 1;
        s.epochUs = 500.0;
        ClusterManager mgr(test::profiles(), test::dvfs(), SimConfig{},
                           s);
        auto run = mgr.run(0.8, 1);
        EXPECT_TRUE(run.ok()) << run.error().message;
        std::vector<Watts> w;
        for (const ChipOutcome &c : run.value().chips)
            w.push_back(c.refPowerW);
        return w;
    };
    const Watts alone_a = refOf({a}).at(0);
    const Watts alone_b = refOf({b}).at(0);
    EXPECT_NE(alone_a, alone_b);
    EXPECT_EQ(refOf({a, b}), (std::vector<Watts>{alone_a, alone_b}));
    EXPECT_EQ(refOf({b, a}), (std::vector<Watts>{alone_b, alone_a}));
}

TEST_F(ClusterTest, ServiceServesAndCachesClusterScenarios)
{
    ScenarioSpec spec = scenario();

    ScenarioService svc(test::profiles(), test::dvfs());
    auto first = svc.submit(spec);
    ASSERT_TRUE(first.ok)
        << first.errorCode << ": " << first.errorMessage;
    EXPECT_FALSE(first.cacheHit);
    EXPECT_EQ(first.hash, spec.hash());

    // Ground truth: a direct ClusterManager run.
    ClusterManager direct(test::profiles(), test::dvfs(),
                          spec.simConfig(), spec.clusterSpec());
    auto run = direct.run(0.8, svc.options().sweepConcurrency);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(first.payload,
              serializeClusterResults(spec, spec.canonicalText(),
                                      {run.value()}));

    // Resubmit: served from the result cache, identical bytes.
    auto second = svc.submit(spec);
    ASSERT_TRUE(second.ok);
    EXPECT_TRUE(second.cacheHit);
    EXPECT_EQ(second.payload, first.payload);

    ServiceStats s = svc.stats();
    EXPECT_EQ(s.clusterRequests, 1u);
    EXPECT_EQ(s.clusterEpochs, 3u);
    EXPECT_EQ(s.chipSims, 2u);
    EXPECT_EQ(s.cacheHits, 1u);
}

TEST_F(ClusterTest, ChipSimThrowSurfacesAsStructuredError)
{
    ScenarioSpec spec = scenario();

    ScenarioService svc(test::profiles(), test::dvfs());
    ASSERT_FALSE(fault::arm("chip-sim-throw:1"));
    auto r = svc.submit(spec);
    fault::disarm();

    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, "internal_error");
    EXPECT_NE(r.errorMessage.find("chip"), std::string::npos);

    // Contained, not crashed: the worker survived and the failure
    // was not cached.
    ServiceStats s = svc.stats();
    EXPECT_EQ(s.workerCrashes, 0u);
    EXPECT_EQ(s.workersAlive, svc.options().workers);

    auto retry = svc.submit(spec);
    ASSERT_TRUE(retry.ok)
        << retry.errorCode << ": " << retry.errorMessage;
    EXPECT_FALSE(retry.cacheHit);
}

} // namespace
} // namespace gpm
