/** @file ScenarioService end to end: a submitted scenario's payload
 *  is bitwise-identical to a direct ExperimentRunner::sweep over the
 *  equivalent SweepSpec, repeats are served from cache with the same
 *  bytes, and the bounded queue / draining shutdown reject with
 *  structured error codes. Uses the small shared profile scale of
 *  the other experiment tests. */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "service/service.hh"

namespace gpm
{
namespace
{

class ServiceTest : public ::testing::Test
{
  protected:
    static DvfsTable &
    dvfs()
    {
        static DvfsTable d = DvfsTable::classic3();
        return d;
    }

    static ProfileLibrary &
    lib()
    {
        static ProfileLibrary l(dvfs(), 0.03);
        return l;
    }

    /** The scenario used throughout: a 2-core combo, MaxBIPS at two
     *  budgets. */
    static ScenarioSpec
    scenario()
    {
        ScenarioSpec s;
        s.combo = {"mcf", "crafty"};
        s.policy = "MaxBIPS";
        s.budgets = {0.75, 0.9};
        return s;
    }
};

TEST_F(ServiceTest, SubmitMatchesDirectSweep)
{
    // The exact solver and a many-core approximate engine alike.
    for (const char *policy : {"MaxBIPS", "WaterFill"}) {
        SCOPED_TRACE(policy);
        ScenarioSpec spec = scenario();
        spec.policy = policy;

        ScenarioService svc(lib(), dvfs());
        auto r = svc.submit(spec);
        ASSERT_TRUE(r.ok) << r.errorCode << ": " << r.errorMessage;
        EXPECT_FALSE(r.cacheHit);
        EXPECT_EQ(r.hash, spec.hash());

        // Ground truth: a direct sweep on an equivalent runner.
        ExperimentRunner direct(lib(), dvfs(), spec.simConfig());
        auto evals = direct.sweep(spec.sweepSpec());
        EXPECT_EQ(r.payload, serializeResults(spec, evals));

        // And the payload's numbers parse back bit-exactly.
        auto parsed = json::parse(r.payload);
        ASSERT_TRUE(parsed.ok());
        const json::Value *results = parsed.value().find("results");
        ASSERT_TRUE(results && results->isArray());
        ASSERT_EQ(results->asArray().size(), evals.size());
        for (std::size_t i = 0; i < evals.size(); i++) {
            const json::Value &res = results->asArray()[i];
            EXPECT_EQ(res.find("policy")->asString(), evals[i].policy);
            EXPECT_EQ(res.find("budget")->asNumber(),
                      evals[i].budgetFrac);
            const json::Value *m = res.find("metrics");
            ASSERT_TRUE(m);
            EXPECT_EQ(m->find("perfDegradation")->asNumber(),
                      evals[i].metrics.perfDegradation);
            EXPECT_EQ(m->find("chipBips")->asNumber(),
                      evals[i].metrics.chipBips);
            EXPECT_EQ(m->find("avgChipPowerW")->asNumber(),
                      evals[i].metrics.avgChipPowerW);
        }
    }
}

TEST_F(ServiceTest, RepeatedSubmitServedFromCacheBitIdentically)
{
    ScenarioService svc(lib(), dvfs());
    auto first = svc.submit(scenario());
    ASSERT_TRUE(first.ok);
    EXPECT_FALSE(first.cacheHit);

    auto second = svc.submit(scenario());
    ASSERT_TRUE(second.ok);
    EXPECT_TRUE(second.cacheHit);
    EXPECT_EQ(second.payload, first.payload);

    ServiceStats s = svc.stats();
    EXPECT_EQ(s.cacheHits, 1u);
    EXPECT_EQ(s.cacheMisses, 1u);
    EXPECT_EQ(s.served, 2u);
    EXPECT_EQ(s.cacheSize, 1u);
    EXPECT_EQ(s.cacheHitRate, 0.5);
}

TEST_F(ServiceTest, EquivalentSpellingsShareOneCacheEntry)
{
    ScenarioService svc(lib(), dvfs());
    auto a = svc.submitJsonText(
        R"({"combo": ["mcf", "crafty"], "policy": "MaxBIPS",
            "budgets": [0.75, 0.9]})");
    ASSERT_TRUE(a.ok) << a.errorCode << ": " << a.errorMessage;
    // Same meaning, different spelling: key order swapped and an
    // explicit default sim block.
    auto b = svc.submitJsonText(
        R"({"policy": "MaxBIPS", "budgets": [0.75, 0.9],
            "combo": ["mcf", "crafty"],
            "sim": {"exploreUs": 500, "deltaSimUs": 50}})");
    ASSERT_TRUE(b.ok);
    EXPECT_TRUE(b.cacheHit);
    EXPECT_EQ(b.payload, a.payload);
}

TEST_F(ServiceTest, InvalidScenarioRejectedStructured)
{
    ScenarioService svc(lib(), dvfs());
    ScenarioSpec bad = scenario();
    bad.policy = "NoSuchPolicy";
    auto r = svc.submit(bad);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, "invalid");
    EXPECT_NE(r.errorMessage.find("NoSuchPolicy"),
              std::string::npos);
    EXPECT_EQ(svc.stats().invalid, 1u);

    auto p = svc.submitJsonText("this is not json");
    EXPECT_FALSE(p.ok);
    EXPECT_EQ(p.errorCode, "parse");
}

TEST_F(ServiceTest, ZeroCapacityQueueRejectsEveryMiss)
{
    ServiceOptions opts;
    opts.queueCapacity = 0;
    ScenarioService svc(lib(), dvfs(), opts);
    auto r = svc.submit(scenario());
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, "busy");
    EXPECT_EQ(svc.stats().rejectedBusy, 1u);
    EXPECT_EQ(svc.stats().served, 0u);
}

TEST_F(ServiceTest, DrainedServiceRejectsNewWork)
{
    ScenarioService svc(lib(), dvfs());
    svc.drain();
    auto r = svc.submit(scenario());
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, "draining");
    svc.drain(); // idempotent
}

TEST_F(ServiceTest, CacheEvictsLeastRecentlyUsed)
{
    ServiceOptions opts;
    opts.cacheCapacity = 1;
    ScenarioService svc(lib(), dvfs(), opts);

    ScenarioSpec a = scenario();
    a.budgets = {0.75};
    ScenarioSpec b = scenario();
    b.budgets = {0.9};

    ASSERT_TRUE(svc.submit(a).ok); // miss, cache = {a}
    ASSERT_TRUE(svc.submit(b).ok); // miss, evicts a
    auto r = svc.submit(a);        // miss again
    ASSERT_TRUE(r.ok);
    EXPECT_FALSE(r.cacheHit);
    EXPECT_EQ(svc.stats().cacheMisses, 3u);
    EXPECT_EQ(svc.stats().cacheSize, 1u);
}

TEST_F(ServiceTest, ConcurrentIdenticalSubmitsAgree)
{
    ScenarioService svc(lib(), dvfs());
    constexpr int kClients = 4;
    std::vector<ScenarioService::Response> out(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; i++)
        clients.emplace_back(
            [&, i] { out[i] = svc.submit(scenario()); });
    for (auto &t : clients)
        t.join();
    for (const auto &r : out) {
        ASSERT_TRUE(r.ok) << r.errorCode;
        EXPECT_EQ(r.payload, out[0].payload);
    }
}

TEST_F(ServiceTest, DistinctSimKnobsGetDistinctRunnersAndResults)
{
    ScenarioService svc(lib(), dvfs());
    ScenarioSpec fast = scenario();
    fast.budgets = {0.75};
    ScenarioSpec coarse = fast;
    coarse.exploreUs = 1000.0;
    coarse.deltaSimUs = 100.0;

    auto a = svc.submit(fast);
    auto b = svc.submit(coarse);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_NE(a.hash, b.hash);
    EXPECT_NE(a.payload, b.payload);

    // Each knob set is deterministic on its own runner.
    ExperimentRunner direct(lib(), dvfs(), coarse.simConfig());
    EXPECT_EQ(b.payload,
              serializeResults(coarse,
                               direct.sweep(coarse.sweepSpec())));
}

} // namespace
} // namespace gpm
