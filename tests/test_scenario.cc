/** @file ScenarioSpec round trips: JSON parse -> ScenarioSpec ->
 *  SweepSpec, strict rejection of malformed scenarios, and
 *  canonical-form hash invariance across equivalent spellings. */

#include <gtest/gtest.h>

#include <cstdio>

#include "service/scenario.hh"
#include "trace/workload.hh"

namespace gpm
{
namespace
{

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

std::string
parseErr(const std::string &text)
{
    auto v = json::parse(text);
    EXPECT_TRUE(v.ok()) << text;
    auto r = parseScenario(v.ok() ? v.value() : json::Value());
    EXPECT_FALSE(r.ok()) << text << " unexpectedly accepted";
    return r.ok() ? "" : r.error();
}

TEST(Scenario, ParsesFullScenario)
{
    ScenarioSpec s = parseOk(
        R"({"combo": ["mcf", "crafty"], "policy": "MaxBIPS",
            "budgets": [0.7, 0.85],
            "sim": {"exploreUs": 250, "deltaSimUs": 25,
                    "contention": true, "sensorNoise": 0.05}})");
    EXPECT_EQ(s.combo,
              (std::vector<std::string>{"mcf", "crafty"}));
    EXPECT_EQ(s.policy, "MaxBIPS");
    EXPECT_EQ(s.budgets, (std::vector<double>{0.7, 0.85}));
    EXPECT_EQ(s.exploreUs, 250.0);
    EXPECT_EQ(s.deltaSimUs, 25.0);
    EXPECT_TRUE(s.contention);
    EXPECT_EQ(s.sensorNoise, 0.05);
}

TEST(Scenario, MinimalScenarioGetsDefaults)
{
    ScenarioSpec s = parseOk(
        R"({"combo": ["art"], "policy": "Priority",
            "budget": 0.8})");
    EXPECT_EQ(s.budgets, (std::vector<double>{0.8}));
    EXPECT_EQ(s.exploreUs, 500.0);
    EXPECT_EQ(s.deltaSimUs, 50.0);
    EXPECT_FALSE(s.contention);
    EXPECT_EQ(s.sensorNoise, 0.0);
    EXPECT_EQ(s.staticFit, StaticFit::Peak);
}

TEST(Scenario, CombinationKeyResolvesToTable2List)
{
    ScenarioSpec s = parseOk(
        R"({"combo": "2way1", "policy": "MaxBIPS",
            "budget": 0.75})");
    EXPECT_EQ(s.combo, combination("2way1"));
}

TEST(Scenario, StaticScenarioParsesFit)
{
    ScenarioSpec s = parseOk(
        R"({"combo": ["gcc"], "policy": "Static",
            "budget": 0.9, "staticFit": "average"})");
    EXPECT_EQ(s.staticFit, StaticFit::Average);

    SweepSpec sweep = s.sweepSpec();
    ASSERT_EQ(sweep.size(), 1u);
    EXPECT_EQ(sweep.points[0].policy, "Static");
    EXPECT_EQ(sweep.points[0].staticFit, StaticFit::Average);
}

TEST(Scenario, SweepSpecHasOnePointPerBudget)
{
    ScenarioSpec s = parseOk(
        R"({"combo": ["mcf", "art"], "policy": "ChipWideDVFS",
            "budgets": [0.6, 0.8, 1.0]})");
    SweepSpec sweep = s.sweepSpec();
    ASSERT_EQ(sweep.size(), 3u);
    for (std::size_t i = 0; i < sweep.size(); i++) {
        EXPECT_EQ(sweep.points[i].combo, s.combo);
        EXPECT_EQ(sweep.points[i].policy, "ChipWideDVFS");
    }
    EXPECT_EQ(sweep.points[0].budgetFrac, 0.6);
    EXPECT_EQ(sweep.points[1].budgetFrac, 0.8);
    EXPECT_EQ(sweep.points[2].budgetFrac, 1.0);
}

TEST(Scenario, SimConfigCarriesKnobs)
{
    ScenarioSpec s = parseOk(
        R"({"combo": ["mesa"], "policy": "MaxBIPS", "budget": 0.7,
            "sim": {"exploreUs": 100, "deltaSimUs": 10}})");
    SimConfig cfg = s.simConfig();
    EXPECT_EQ(cfg.exploreUs, 100.0);
    EXPECT_EQ(cfg.deltaSimUs, 10.0);
    EXPECT_FALSE(cfg.contention);
    EXPECT_EQ(cfg.sensorNoise, 0.0);
}

TEST(Scenario, HashIgnoresKeyOrder)
{
    ScenarioSpec a = parseOk(
        R"({"combo": ["mcf"], "policy": "MaxBIPS",
            "budget": 0.7})");
    ScenarioSpec b = parseOk(
        R"({"policy": "MaxBIPS", "budget": 0.7,
            "combo": ["mcf"]})");
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(Scenario, BudgetAndBudgetsSpellingsHashIdentically)
{
    ScenarioSpec a = parseOk(
        R"({"combo": ["mcf"], "policy": "MaxBIPS",
            "budget": 0.7})");
    ScenarioSpec b = parseOk(
        R"({"combo": ["mcf"], "policy": "MaxBIPS",
            "budgets": [0.7]})");
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_EQ(a.canonicalJson().canonical(),
              b.canonicalJson().canonical());
}

TEST(Scenario, CombinationKeyAndExplicitListHashIdentically)
{
    const auto &combo = combination("2way1");
    json::Value list = json::Value::array();
    for (const auto &name : combo)
        list.push(name);
    json::Value explicit_form = json::Value::object();
    explicit_form.set("combo", std::move(list));
    explicit_form.set("policy", "MaxBIPS");
    explicit_form.set("budget", 0.75);

    auto a = parseScenario(explicit_form);
    ASSERT_TRUE(a.ok());
    ScenarioSpec b = parseOk(
        R"({"combo": "2way1", "policy": "MaxBIPS",
            "budget": 0.75})");
    EXPECT_EQ(a.value().hash(), b.hash());
}

TEST(Scenario, DistinctScenariosHashDifferently)
{
    ScenarioSpec a = parseOk(
        R"({"combo": ["mcf"], "policy": "MaxBIPS",
            "budget": 0.7})");
    ScenarioSpec b = a;
    b.budgets = {0.8};
    EXPECT_NE(a.hash(), b.hash());
    ScenarioSpec c = a;
    c.contention = true;
    EXPECT_NE(a.hash(), c.hash());
}

TEST(Scenario, StaticFitOnlyHashedForStaticPolicy)
{
    // For a dynamic policy the fit rule cannot change the result,
    // so it must not split the cache.
    ScenarioSpec a = parseOk(
        R"({"combo": ["mcf"], "policy": "MaxBIPS",
            "budget": 0.7})");
    ScenarioSpec b = a;
    b.staticFit = StaticFit::Average;
    EXPECT_EQ(a.hash(), b.hash());

    ScenarioSpec s1 = parseOk(
        R"({"combo": ["mcf"], "policy": "Static", "budget": 0.7,
            "staticFit": "peak"})");
    ScenarioSpec s2 = parseOk(
        R"({"combo": ["mcf"], "policy": "Static", "budget": 0.7,
            "staticFit": "average"})");
    EXPECT_NE(s1.hash(), s2.hash());
}

TEST(ClusterScenario, ParsesChipsAndExpandsCounts)
{
    ScenarioSpec s = parseOk(
        R"({"cluster": {"chips": [
              {"combo": "2way1", "policy": "MaxBIPS", "count": 2,
               "phaseShiftStride": 0.1},
              {"combo": ["mcf", "crafty"], "policy": "WaterFill",
               "phaseOffset": 0.5}],
            "epochs": 4, "epochUs": 1500, "levels": 12},
            "policy": "MaxBIPS-DP", "budget": 0.75})");
    ASSERT_TRUE(s.cluster.has_value());
    EXPECT_TRUE(s.combo.empty());
    ASSERT_EQ(s.cluster->chips.size(), 3u);
    EXPECT_EQ(s.cluster->chips[0].combo,
              (std::vector<std::string>{"ammp", "art"}));
    EXPECT_EQ(s.cluster->chips[0].policy, "MaxBIPS");
    EXPECT_EQ(s.cluster->chips[0].phaseShiftStride, 0.1);
    EXPECT_EQ(s.cluster->chips[1].combo,
              s.cluster->chips[0].combo);
    EXPECT_EQ(s.cluster->chips[2].policy, "WaterFill");
    EXPECT_EQ(s.cluster->chips[2].phaseOffset, 0.5);
    EXPECT_EQ(s.cluster->epochs, 4u);
    EXPECT_EQ(s.cluster->epochUs, 1500.0);
    EXPECT_EQ(s.cluster->levels, 12u);
    EXPECT_EQ(s.policy, "MaxBIPS-DP");

    // clusterSpec() carries the top-level policy into the spec.
    EXPECT_EQ(s.clusterSpec().policy, "MaxBIPS-DP");
    EXPECT_EQ(s.cluster->totalCores(), 6u);
}

TEST(ClusterScenario, CountReplicasHashLikeExplicitChips)
{
    ScenarioSpec a = parseOk(
        R"({"cluster": {"chips": [
              {"combo": ["mcf"], "policy": "MaxBIPS", "count": 3}]},
            "policy": "WaterFill", "budget": 0.8})");
    ScenarioSpec b = parseOk(
        R"({"cluster": {"chips": [
              {"combo": ["mcf"], "policy": "MaxBIPS"},
              {"combo": ["mcf"], "policy": "MaxBIPS"},
              {"combo": ["mcf"], "policy": "MaxBIPS"}]},
            "policy": "WaterFill", "budget": 0.8})");
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(ClusterScenario, RejectsMalformedClusters)
{
    // combo and cluster are mutually exclusive.
    EXPECT_NE(parseErr(
                  R"({"combo": ["mcf"], "cluster": {"chips":
                   [{"combo": ["art"], "policy": "MaxBIPS"}]},
                   "policy": "WaterFill", "budget": 0.8})")
                  .find("either"),
              std::string::npos);
    // The top-level policy must be an arbitration kernel.
    EXPECT_NE(parseErr(
                  R"({"cluster": {"chips":
                   [{"combo": ["art"], "policy": "MaxBIPS"}]},
                   "policy": "Priority", "budget": 0.8})")
                  .find("arbitration"),
              std::string::npos);
    // Chip policies must be dynamic per-chip policies.
    parseErr(
        R"({"cluster": {"chips":
         [{"combo": ["art"], "policy": "Static"}]},
         "policy": "WaterFill", "budget": 0.8})");
    // Unknown cluster / chip fields are rejected.
    parseErr(
        R"({"cluster": {"chips":
         [{"combo": ["art"], "policy": "MaxBIPS"}], "zap": 1},
         "policy": "WaterFill", "budget": 0.8})");
    parseErr(
        R"({"cluster": {"chips":
         [{"combo": ["art"], "policy": "MaxBIPS", "zap": 1}]},
         "policy": "WaterFill", "budget": 0.8})");
    // Knob ranges.
    parseErr(
        R"({"cluster": {"chips":
         [{"combo": ["art"], "policy": "MaxBIPS"}], "epochs": 0},
         "policy": "WaterFill", "budget": 0.8})");
    parseErr(
        R"({"cluster": {"chips":
         [{"combo": ["art"], "policy": "MaxBIPS"}], "levels": 1},
         "policy": "WaterFill", "budget": 0.8})");
    parseErr(
        R"({"cluster": {"chips":
         [{"combo": ["art"], "policy": "MaxBIPS"}],
           "epochUs": 100}, "policy": "WaterFill", "budget": 0.8})");
    // Per-chip shifts live on the chips, not in sim.
    EXPECT_NE(parseErr(
                  R"({"cluster": {"chips":
                   [{"combo": ["art"], "policy": "MaxBIPS"}]},
                   "policy": "WaterFill", "budget": 0.8,
                   "sim": {"phaseShiftStride": 0.1}})")
                  .find("per chip"),
              std::string::npos);
    // A cluster scenario must still name chips.
    parseErr(R"({"cluster": {}, "policy": "WaterFill",
                 "budget": 0.8})");
}

/** Frozen canonical hashes: these lock the canonical serialization
 *  of the request schema. A change here invalidates every persisted
 *  result cache — if one of these breaks, that is a cache-format
 *  break and must be deliberate (and called out in the change
 *  description), never incidental. */
TEST(Scenario, GoldenCanonicalHashes)
{
    auto hex = [](const ScenarioSpec &s) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(s.hash()));
        return std::string(buf);
    };

    // Flat minimal scenario.
    EXPECT_EQ(hex(parseOk(
                  R"({"combo": ["mcf"], "policy": "MaxBIPS",
                      "budget": 0.8})")),
              "9ab3726c5cbbca51");
    // Static with a fit rule (staticFit participates).
    EXPECT_EQ(hex(parseOk(
                  R"({"combo": ["mcf", "crafty"],
                      "policy": "Static", "staticFit": "average",
                      "budget": 0.75})")),
              "37d118bdff94e81a");
    // Many-core with a phase-shift stride.
    EXPECT_EQ(hex(parseOk(
                  R"({"combo": "many64", "policy": "MaxBIPS-DP",
                      "budgets": [0.7, 0.9],
                      "sim": {"phaseShiftStride": 0.618}})")),
              "4a44bccc6c556285");
    // A cluster scenario.
    EXPECT_EQ(hex(parseOk(
                  R"({"cluster": {"chips": [
                        {"combo": "2way1", "policy": "MaxBIPS",
                         "count": 2},
                        {"combo": ["mcf", "crafty"],
                         "policy": "WaterFill",
                         "phaseOffset": 0.25}],
                      "epochs": 3, "epochUs": 1000, "levels": 8},
                      "policy": "GreedyTurbo", "budget": 0.8})")),
              "07ab87de98850d7f");
}

TEST(Scenario, RejectsMalformedScenarios)
{
    // Shape errors.
    parseErr(R"({"policy": "MaxBIPS", "budget": 0.7})");
    parseErr(R"({"combo": ["mcf"], "budget": 0.7})");
    parseErr(R"({"combo": ["mcf"], "policy": "MaxBIPS"})");
    parseErr(R"({"combo": ["mcf"], "policy": "MaxBIPS",
                 "budget": 0.7, "budgets": [0.8]})");
    parseErr(R"({"combo": ["mcf"], "policy": "MaxBIPS",
                 "budget": 0.7, "bogus": 1})");
    parseErr(R"({"combo": 3, "policy": "MaxBIPS",
                 "budget": 0.7})");
    parseErr(R"({"combo": [3], "policy": "MaxBIPS",
                 "budget": 0.7})");
    parseErr(R"({"combo": [], "policy": "MaxBIPS",
                 "budget": 0.7})");
    parseErr(R"({"combo": ["mcf"], "policy": "MaxBIPS",
                 "budget": "0.7"})");
    parseErr("[1, 2]");

    // Unknown names.
    parseErr(R"({"combo": ["nosuch"], "policy": "MaxBIPS",
                 "budget": 0.7})");
    parseErr(R"({"combo": "99way9", "policy": "MaxBIPS",
                 "budget": 0.7})");
    parseErr(R"({"combo": ["mcf"], "policy": "NoSuchPolicy",
                 "budget": 0.7})");
    // The old branch-and-bound alias: one exact search, one name.
    parseErr(R"({"combo": ["mcf"], "policy": "MaxBIPS-BnB",
                 "budget": 0.7})");

    // staticFit misuse.
    parseErr(R"({"combo": ["mcf"], "policy": "MaxBIPS",
                 "budget": 0.7, "staticFit": "peak"})");
    parseErr(R"({"combo": ["mcf"], "policy": "Static",
                 "budget": 0.7, "staticFit": "best"})");

    // Range errors.
    parseErr(R"({"combo": ["mcf"], "policy": "MaxBIPS",
                 "budget": 0})");
    parseErr(R"({"combo": ["mcf"], "policy": "MaxBIPS",
                 "budget": 1.5})");
    parseErr(R"({"combo": ["mcf"], "policy": "MaxBIPS",
                 "budget": -0.5})");
    parseErr(R"({"combo": ["mcf"], "policy": "MaxBIPS",
                 "budgets": []})");
    parseErr(R"({"combo": ["mcf"], "policy": "MaxBIPS",
                 "budget": 0.7, "sim": {"exploreUs": 0}})");
    parseErr(R"({"combo": ["mcf"], "policy": "MaxBIPS",
                 "budget": 0.7,
                 "sim": {"exploreUs": 100, "deltaSimUs": 200}})");
    parseErr(R"({"combo": ["mcf"], "policy": "MaxBIPS",
                 "budget": 0.7, "sim": {"sensorNoise": 2}})");
    parseErr(R"({"combo": ["mcf"], "policy": "MaxBIPS",
                 "budget": 0.7, "sim": {"nope": 1}})");
    parseErr(R"({"combo": ["mcf"], "policy": "MaxBIPS",
                 "budget": 0.7, "sim": 5})");
}

TEST(Scenario, ValidateCatchesOversizedRequests)
{
    ScenarioSpec s;
    s.combo.assign(ScenarioSpec::maxCores + 1, "mcf");
    s.policy = "MaxBIPS";
    s.budgets = {0.7};
    EXPECT_TRUE(validateScenario(s).has_value());

    s.combo = {"mcf"};
    s.budgets.assign(ScenarioSpec::maxBudgets + 1, 0.5);
    EXPECT_TRUE(validateScenario(s).has_value());

    s.budgets = {0.5};
    EXPECT_FALSE(validateScenario(s).has_value());
}

TEST(Scenario, SerializeResultsIsCanonicalAndParsesBack)
{
    ScenarioSpec s = parseOk(
        R"({"combo": ["mcf"], "policy": "MaxBIPS",
            "budget": 0.7})");
    PolicyEval ev;
    ev.policy = "MaxBIPS";
    ev.budgetFrac = 0.7;
    ev.metrics.chipBips = 1.0 / 3.0;
    ev.managerStats.decisions = 42;

    std::string payload = serializeResults(s, {ev});
    EXPECT_EQ(payload, serializeResults(s, {ev}));

    auto parsed = json::parse(payload);
    ASSERT_TRUE(parsed.ok());
    // Canonical form round trips byte-identically.
    EXPECT_EQ(parsed.value().canonical(), payload);
    const json::Value *results = parsed.value().find("results");
    ASSERT_TRUE(results && results->isArray());
    ASSERT_EQ(results->asArray().size(), 1u);
    const json::Value &r = results->asArray()[0];
    EXPECT_EQ(r.find("metrics")->find("chipBips")->asNumber(),
              1.0 / 3.0);
    EXPECT_EQ(r.find("manager")->find("decisions")->asNumber(),
              42.0);

    // A Static payload carries staticFit in its scenario.
    ScenarioSpec st = parseOk(
        R"({"combo": ["mcf", "crafty"], "policy": "Static",
            "staticFit": "average", "budgets": [0.6, 0.9]})");
    PolicyEval sev = ev;
    sev.policy = "Static";
    std::string stat = serializeResults(st, {sev, sev});
    auto stParsed = json::parse(stat);
    ASSERT_TRUE(stParsed.ok());
    EXPECT_EQ(stParsed.value().canonical(), stat);
    EXPECT_EQ(stParsed.value().find("scenario")->canonical(),
              st.canonicalJson().canonical());

    // And a cluster payload: chips, epochs and awards per budget.
    ScenarioSpec cl = parseOk(
        R"({"cluster": {"chips": [
              {"combo": "2way1", "policy": "MaxBIPS", "count": 2},
              {"combo": ["mcf", "crafty"], "policy": "WaterFill",
               "phaseOffset": 0.25, "phaseShiftStride": 0.5}],
            "epochs": 2, "epochUs": 1000, "levels": 8},
            "policy": "GreedyTurbo", "budgets": [0.7, 0.8]})");
    ClusterRunResult run;
    run.facilityBudgetW = 40.0 / 3.0;
    run.clusterBips = 2.5;
    run.clusterPowerW = 12.125;
    run.budgetUtilization = 0.9;
    ChipOutcome chip;
    chip.bips = 1.0 / 7.0;
    chip.managerStats.overshoots = 3;
    run.chips.assign(3, chip);
    EpochTrace epoch;
    epoch.feasible = true;
    epoch.predictedBips = 0.1;
    epoch.awardsW = {4.0, 4.5, 1.0 / 3.0};
    run.epochs.assign(2, epoch);
    std::string cluster =
        serializeClusterResults(cl, cl.canonicalText(), {run, run});
    EXPECT_EQ(cluster, serializeClusterResults(cl, cl.canonicalText(),
                                               {run, run}));
    auto clParsed = json::parse(cluster);
    ASSERT_TRUE(clParsed.ok());
    EXPECT_EQ(clParsed.value().canonical(), cluster);
    EXPECT_EQ(clParsed.value().find("scenario")->canonical(),
              cl.canonicalJson().canonical());
    const json::Value *clResults = clParsed.value().find("results");
    ASSERT_TRUE(clResults && clResults->isArray());
    ASSERT_EQ(clResults->asArray().size(), 2u);
    EXPECT_EQ(clResults->asArray()[1].find("budget")->asNumber(),
              0.8);

    // The scenario builders set members in byte order at every
    // level, so canonical() writes them without sorting.
    ScenarioSpec shifted = parseOk(
        R"({"combo": "many64", "policy": "WaterFill", "budget": 0.8,
            "sim": {"phaseShiftStride": 0.1}})");
    for (const ScenarioSpec *x : {&s, &st, &cl, &shifted})
        EXPECT_EQ(x->canonicalJson().dump(), x->canonicalText());
}

} // namespace
} // namespace gpm
