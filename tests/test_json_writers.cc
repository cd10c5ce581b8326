/** @file The service's canonical writers against the json::Value
 *  trees they replaced (tests/reference_json.hh), byte for byte:
 *  scenario text for every named combination under every policy,
 *  every sim knob on and off, awkward budget doubles and cluster
 *  shapes; flat and cluster payloads holding NaN, infinities, 2^53
 *  and subnormals; and submit response lines for every kind of id,
 *  cached or not, degraded or not. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "reference_json.hh"
#include "service/server.hh"
#include "trace/workload.hh"

namespace gpm
{
namespace
{

/** Every policy a flat scenario may name, "Static" included. */
const char *const kPolicies[] = {
    "MaxBIPS",      "MaxBIPS-DP",     "MaxBIPS-DP32", "WaterFill",
    "GreedyTurbo",  "Priority",       "PullHiPushLo", "ChipWideDVFS",
    "Oracle",       "UniformBudget",  "MinPower",     "MinPower90",
    "ExploreMaxBIPS", "HistoryMaxBIPS", "Static"};

/** Awkward doubles: thirds, tenths, a power of two far below one,
 *  exact one, and the edges formatDouble must print with care. */
const std::vector<double> kAwkwardBudgets = {
    1.0 / 3.0, 0.1, std::ldexp(1.0, -10), 1.0, 0.7, 2.0 / 3.0};

/** The writers' bytes and the reference tree's, for @p spec. */
void
expectSameScenario(const ScenarioSpec &spec)
{
    const std::string text = spec.canonicalText();
    EXPECT_EQ(text, test::referenceCanonicalJson(spec).canonical());
    EXPECT_EQ(spec.simText(), test::referenceSimJson(spec).canonical());
    EXPECT_EQ(spec.simJson().canonical(), spec.simText());
    EXPECT_EQ(spec.hash(), ScenarioSpec::hashOf(text));
}

ScenarioSpec
flat(const std::vector<std::string> &combo, const std::string &policy,
     std::vector<double> budgets = {0.8})
{
    ScenarioSpec s;
    s.combo = combo;
    s.policy = policy;
    s.budgets = std::move(budgets);
    return s;
}

TEST(JsonWriters, ScenarioTextForEveryNamedCombinationAndPolicy)
{
    std::vector<std::pair<std::string, std::vector<std::string>>> combos =
        benchmarkCombinations();
    for (std::size_t n : {64, 128, 256})
        combos.emplace_back("many" + std::to_string(n), manyCoreCombo(n));
    std::size_t checked = 0;
    for (const auto &[key, combo] : combos) {
        for (const char *policy : kPolicies) {
            if (std::string(policy) != "Static") {
                ASSERT_TRUE(isPolicyName(policy)) << policy;
            }
            ScenarioSpec s = flat(combo, policy);
            SCOPED_TRACE(key + " " + policy);
            expectSameScenario(s);
            if (s.policy == "Static") {
                s.staticFit = StaticFit::Average;
                expectSameScenario(s);
            }
            checked++;
        }
    }
    EXPECT_EQ(checked, (benchmarkCombinations().size() + 3) *
                           std::size(kPolicies));
}

TEST(JsonWriters, ScenarioTextForEverySimKnobOnAndOff)
{
    // All 32 on/off combinations of the five knobs.
    for (unsigned mask = 0; mask < 32; mask++) {
        ScenarioSpec s = flat(combination("4way1"), "MaxBIPS",
                              kAwkwardBudgets);
        s.contention = mask & 1;
        s.sensorNoise = mask & 2 ? 0.05 : 0.0;
        s.phaseShiftStride = mask & 4 ? 0.1 : 0.0;
        s.exploreUs = mask & 8 ? 250.0 : 500.0;
        s.deltaSimUs = mask & 16 ? 12.5 : 50.0;
        SCOPED_TRACE(mask);
        expectSameScenario(s);
        // A deadline is QoS only: it never reaches the text.
        std::string text = s.canonicalText();
        s.deadlineMs = 250.0;
        EXPECT_EQ(s.canonicalText(), text);
    }
}

TEST(JsonWriters, ScenarioTextForBudgetLists)
{
    for (std::size_t n = 1; n <= kAwkwardBudgets.size(); n++) {
        std::vector<double> budgets(kAwkwardBudgets.begin(),
                                    kAwkwardBudgets.begin() + n);
        expectSameScenario(flat({"mcf"}, "Priority", budgets));
    }
    // Values a scenario never carries once validated, so the writers
    // agree on them too: an empty list, subnormals, non-finite values
    // (which print as null) and names that need escaping.
    expectSameScenario(flat({"mcf"}, "MaxBIPS", {}));
    const double inf = std::numeric_limits<double>::infinity();
    expectSameScenario(flat({"a\"b\\c\n\x01", "\xc3\xa9"}, "p\t",
                            {std::numeric_limits<double>::denorm_min(),
                             std::nan(""), inf, -inf,
                             std::ldexp(1.0, 53), -0.0}));
}

TEST(JsonWriters, ScenarioTextForClusters)
{
    const char *clusters[] = {
        R"({"cluster": {"chips": [
              {"combo": "2way1", "policy": "MaxBIPS", "count": 3},
              {"combo": ["mcf", "crafty"], "policy": "WaterFill",
               "phaseOffset": 0.25, "phaseShiftStride": 0.5},
              {"combo": "4way2", "policy": "Priority",
               "phaseOffset": 0.1},
              {"combo": "8way1", "policy": "GreedyTurbo",
               "phaseShiftStride": 0.125, "count": 2}],
            "epochs": 3, "epochUs": 1000, "levels": 8},
            "policy": "MaxBIPS-DP", "budgets": [0.7, 0.1, 1.0]})",
        R"({"cluster": {"chips": [
              {"combo": "many64", "policy": "WaterFill", "count": 4,
               "phaseShiftStride": 0.01}]},
            "policy": "GreedyTurbo", "budget": 0.8,
            "sim": {"contention": true, "sensorNoise": 0.05,
                    "exploreUs": 250, "deltaSimUs": 25}})",
    };
    for (const char *text : clusters) {
        auto v = json::parse(text);
        ASSERT_TRUE(v.ok()) << text;
        auto spec = parseScenario(v.value());
        ASSERT_TRUE(spec.ok()) << (spec.ok() ? "" : spec.error());
        expectSameScenario(spec.value());
        ScenarioSpec s = spec.value();
        s.budgets = kAwkwardBudgets;
        s.cluster->epochUs = 1.0 / 3.0;
        expectSameScenario(s);
    }
}

/** Doubles formatDouble must get right: NaN and the infinities
 *  (null), 2^53, subnormals, -0, thirds, and powers of two. */
const double kEdgeDoubles[] = {
    std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    std::ldexp(1.0, 53),
    std::ldexp(1.0, 53) + 2.0,
    std::numeric_limits<double>::denorm_min(),
    std::numeric_limits<double>::min() / 3.0,
    -0.0,
    1.0 / 3.0,
    std::ldexp(1.0, -1017),
    std::numeric_limits<double>::max(),
    0.1,
};

PolicyEval
edgeEval(std::size_t i)
{
    auto at = [i](std::size_t k) {
        return kEdgeDoubles[(i + k) % std::size(kEdgeDoubles)];
    };
    PolicyEval ev;
    ev.policy = i % 2 ? "MaxBIPS" : "Pri\"ority\\";
    ev.budgetFrac = at(0);
    ev.metrics.avgChipPowerW = at(1);
    ev.metrics.chipBips = at(2);
    ev.metrics.perfDegradation = at(3);
    ev.metrics.powerOverBudget = at(4);
    ev.metrics.powerSavings = at(5);
    ev.metrics.weightedSlowdown = at(6);
    ev.metrics.weightedSpeedupLoss = at(7);
    ev.predBipsError = at(8);
    ev.predPowerError = at(9);
    ev.managerStats.decisions = i;
    ev.managerStats.modeSwitches = (std::uint64_t{1} << 53) + i;
    ev.managerStats.overshoots = i % 3 ? 279 : ~std::uint64_t{0};
    return ev;
}

TEST(JsonWriters, FlatPayloadsHoldEveryEdgeDouble)
{
    ScenarioSpec spec = flat(combination("2way3"), "MaxBIPS",
                             kAwkwardBudgets);
    const std::string text = spec.canonicalText();
    for (std::size_t n = 0; n <= std::size(kEdgeDoubles); n++) {
        std::vector<PolicyEval> evals;
        for (std::size_t i = 0; i < n; i++)
            evals.push_back(edgeEval(i));
        SCOPED_TRACE(n);
        EXPECT_EQ(serializeResults(text, evals),
                  test::referenceSerializeResults(text, evals));
        EXPECT_EQ(serializeResults(spec, evals),
                  test::referenceSerializeResults(text, evals));
    }
}

TEST(JsonWriters, ClusterPayloadsHoldEveryEdgeDouble)
{
    auto v = json::parse(
        R"({"cluster": {"chips": [
              {"combo": "2way1", "policy": "MaxBIPS", "count": 2},
              {"combo": ["mcf"], "policy": "WaterFill",
               "phaseOffset": 0.5}],
            "epochs": 2, "epochUs": 1000},
            "policy": "WaterFill",
            "budgets": [0.1, 0.7, 1.0]})");
    ASSERT_TRUE(v.ok());
    auto parsed = parseScenario(v.value());
    ASSERT_TRUE(parsed.ok()) << (parsed.ok() ? "" : parsed.error());
    const ScenarioSpec &spec = parsed.value();
    const std::string text = spec.canonicalText();

    const std::size_t e = std::size(kEdgeDoubles);
    std::vector<ClusterRunResult> runs;
    for (std::size_t k = 0; k < spec.budgets.size(); k++) {
        ClusterRunResult run;
        run.facilityBudgetW = kEdgeDoubles[k % e];
        run.clusterBips = kEdgeDoubles[(k + 1) % e];
        run.clusterPowerW = kEdgeDoubles[(k + 2) % e];
        run.budgetUtilization = kEdgeDoubles[(k + 3) % e];
        // The last run has no chips and no epochs: empty arrays.
        if (k + 1 < spec.budgets.size()) {
            for (std::size_t c = 0; c < 3; c++) {
                ChipOutcome chip;
                chip.bips = kEdgeDoubles[(k + c + 4) % e];
                chip.avgCorePowerW = kEdgeDoubles[(k + c + 5) % e];
                chip.awardedMeanW = kEdgeDoubles[(k + c + 6) % e];
                chip.refPowerW = kEdgeDoubles[(k + c + 7) % e];
                chip.managerStats.decisions = c;
                chip.managerStats.modeSwitches = std::uint64_t{1} << 53;
                chip.managerStats.overshoots = ~std::uint64_t{0} - c;
                run.chips.push_back(chip);
            }
            for (std::size_t t = 0; t < 2 + k; t++) {
                EpochTrace epoch;
                epoch.feasible = t % 2 == 0;
                epoch.predictedBips = kEdgeDoubles[(k + t + 8) % e];
                for (std::size_t c = 0; c < t; c++)
                    epoch.awardsW.push_back(kEdgeDoubles[(c + t) % e]);
                run.epochs.push_back(epoch);
            }
        }
        runs.push_back(run);
    }
    for (std::size_t n = 0; n <= runs.size(); n++) {
        std::vector<ClusterRunResult> some(runs.begin(),
                                           runs.begin() + n);
        SCOPED_TRACE(n);
        EXPECT_EQ(serializeClusterResults(spec, text, some),
                  test::referenceSerializeClusterResults(spec, text,
                                                         some));
    }
}

TEST(JsonWriters, SubmitResponseForEveryIdAndFlag)
{
    ScenarioSpec spec = flat(combination("2way1"), "MaxBIPS");
    ScenarioService::Response r;
    r.ok = true;
    r.payload = serializeResults(spec, {edgeEval(1)});

    const json::Value ids[] = {
        json::Value(nullptr),
        json::Value(true),
        json::Value(false),
        json::Value(10),
        json::Value(-0.0),
        json::Value(1.0 / 3.0),
        json::Value(std::ldexp(1.0, 53)),
        json::Value("plain"),
        json::Value(""),
        json::Value("q\"b\\s/\b\f\n\r\t\x01\x1f\xc3\xa9"),
    };
    for (const json::Value &id : ids) {
        for (bool cached : {false, true}) {
            for (bool degraded : {false, true}) {
                r.cacheHit = cached;
                r.degradedFrom = degraded ? "MaxBIPS" : "";
                r.degradedTo = degraded ? "WaterFill\"\n" : "";
                r.degradedReason = degraded ? "deadline" : "";
                SCOPED_TRACE(id.dump() + (cached ? " cached" : "") +
                             (degraded ? " degraded" : ""));
                const std::string line = submitResponse(id, r);
                EXPECT_EQ(line, test::referenceSubmitResponse(id, r));
                auto parsed = json::parse(line);
                ASSERT_TRUE(parsed.ok()) << line;
                EXPECT_EQ(parsed.value().find("id")->dump(), id.dump());
            }
        }
    }

    // An error keeps the envelope it always had.
    r.ok = false;
    r.errorCode = "busy";
    r.errorMessage = "request queue is full, retry later";
    r.retryAfterMs = 25.0;
    EXPECT_EQ(submitResponse(json::Value(7), r),
              R"({"id":7,"ok":false,"error":{"code":"busy",)"
              R"("message":"request queue is full, retry later",)"
              R"("retryAfterMs":25}})");
}

} // namespace
} // namespace gpm
