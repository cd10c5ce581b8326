/**
 * @file
 * The json::Value trees the service's canonical writers replaced,
 * kept as the reference those writers must reproduce byte for byte:
 * the scenario's canonical JSON, the flat and cluster result
 * payloads, and a submit's response line. Each builds the tree the
 * service once built and serializes it as the service did
 * (canonical() for scenario text and payloads, dump() for the
 * response line). test_json_writers.cc compares them with
 * ScenarioSpec::canonicalText(), serializeResults(),
 * serializeClusterResults() and submitResponse().
 */

#ifndef GPM_TESTS_REFERENCE_JSON_HH
#define GPM_TESTS_REFERENCE_JSON_HH

#include <string>
#include <string_view>
#include <vector>

#include "service/scenario.hh"
#include "service/service.hh"

namespace gpm::test
{

/** The sim-knob object of a scenario's canonical form. */
inline json::Value
referenceSimJson(const ScenarioSpec &spec)
{
    json::Value sim = json::Value::object();
    sim.set("contention", spec.contention);
    sim.set("deltaSimUs", spec.deltaSimUs);
    sim.set("exploreUs", spec.exploreUs);
    if (spec.phaseShiftStride != 0.0)
        sim.set("phaseShiftStride", spec.phaseShiftStride);
    sim.set("sensorNoise", spec.sensorNoise);
    return sim;
}

/** A scenario's canonical form as a tree, every field explicit. */
inline json::Value
referenceCanonicalJson(const ScenarioSpec &spec)
{
    using json::Value;
    Value o = Value::object();
    Value bs = Value::array();
    for (double b : spec.budgets)
        bs.push(b);
    o.set("budgets", std::move(bs));
    if (spec.cluster) {
        Value cl = Value::object();
        Value chips = Value::array();
        for (const auto &chip : spec.cluster->chips) {
            Value ch = Value::object();
            Value cc = Value::array();
            for (const auto &name : chip.combo)
                cc.push(name);
            ch.set("combo", std::move(cc));
            if (chip.phaseOffset != 0.0)
                ch.set("phaseOffset", chip.phaseOffset);
            if (chip.phaseShiftStride != 0.0)
                ch.set("phaseShiftStride", chip.phaseShiftStride);
            ch.set("policy", chip.policy);
            chips.push(std::move(ch));
        }
        cl.set("chips", std::move(chips));
        cl.set("epochUs", spec.cluster->epochUs);
        cl.set("epochs", static_cast<double>(spec.cluster->epochs));
        cl.set("levels", static_cast<double>(spec.cluster->levels));
        o.set("cluster", std::move(cl));
    } else {
        Value c = Value::array();
        for (const auto &name : spec.combo)
            c.push(name);
        o.set("combo", std::move(c));
    }
    o.set("policy", spec.policy);
    o.set("sim", referenceSimJson(spec));
    if (spec.policy == "Static")
        o.set("staticFit",
              spec.staticFit == StaticFit::Peak ? "peak" : "average");
    return o;
}

/** The payload around a results tree, the scenario text spliced in
 *  after it. */
inline std::string
referencePayload(const json::Value &results,
                 std::string_view scenarioText)
{
    std::string out = "{\"results\":";
    results.canonical(out);
    out += ",\"scenario\":";
    out += scenarioText;
    out += '}';
    return out;
}

/** A flat scenario's result payload, built as a tree. */
inline std::string
referenceSerializeResults(std::string_view scenarioText,
                          const std::vector<PolicyEval> &evals)
{
    using json::Value;
    Value results = Value::array();
    for (const auto &ev : evals) {
        Value r = Value::object();
        r.set("budget", ev.budgetFrac);

        Value mgr = Value::object();
        mgr.set("decisions", ev.managerStats.decisions);
        mgr.set("modeSwitches", ev.managerStats.modeSwitches);
        mgr.set("overshoots", ev.managerStats.overshoots);
        r.set("manager", std::move(mgr));

        Value m = Value::object();
        m.set("avgChipPowerW", ev.metrics.avgChipPowerW);
        m.set("chipBips", ev.metrics.chipBips);
        m.set("perfDegradation", ev.metrics.perfDegradation);
        m.set("powerOverBudget", ev.metrics.powerOverBudget);
        m.set("powerSavings", ev.metrics.powerSavings);
        m.set("weightedSlowdown", ev.metrics.weightedSlowdown);
        m.set("weightedSpeedupLoss", ev.metrics.weightedSpeedupLoss);
        r.set("metrics", std::move(m));

        r.set("policy", ev.policy);
        r.set("predBipsError", ev.predBipsError);
        r.set("predPowerError", ev.predPowerError);

        results.push(std::move(r));
    }
    return referencePayload(results, scenarioText);
}

/** A cluster scenario's result payload, built as a tree. */
inline std::string
referenceSerializeClusterResults(const ScenarioSpec &spec,
                                 std::string_view scenarioText,
                                 const std::vector<ClusterRunResult> &runs)
{
    using json::Value;
    Value results = Value::array();
    for (std::size_t k = 0; k < runs.size(); k++) {
        const ClusterRunResult &run = runs[k];
        Value r = Value::object();
        r.set("budget", spec.budgets[k]);

        Value chips = Value::array();
        for (const auto &c : run.chips) {
            Value ch = Value::object();
            ch.set("awardedMeanW", c.awardedMeanW);
            ch.set("bips", c.bips);
            ch.set("decisions", c.managerStats.decisions);
            ch.set("modeSwitches", c.managerStats.modeSwitches);
            ch.set("overshoots", c.managerStats.overshoots);
            ch.set("powerW", c.avgCorePowerW);
            ch.set("refPowerW", c.refPowerW);
            chips.push(std::move(ch));
        }
        r.set("chips", std::move(chips));

        Value epochs = Value::array();
        for (const auto &t : run.epochs) {
            Value e = Value::object();
            Value awards = Value::array();
            for (Watts w : t.awardsW)
                awards.push(w);
            e.set("awards", std::move(awards));
            e.set("feasible", t.feasible);
            e.set("predictedBips", t.predictedBips);
            epochs.push(std::move(e));
        }
        r.set("epochs", std::move(epochs));

        Value m = Value::object();
        m.set("budgetUtilization", run.budgetUtilization);
        m.set("clusterBips", run.clusterBips);
        m.set("clusterPowerW", run.clusterPowerW);
        m.set("facilityBudgetW", run.facilityBudgetW);
        r.set("metrics", std::move(m));

        r.set("policy", spec.policy);

        results.push(std::move(r));
    }
    return referencePayload(results, scenarioText);
}

/** A submit's ok response line, built as a tree: id, ok, cached,
 *  the degraded marker, then the payload appended as "result". */
inline std::string
referenceSubmitResponse(const json::Value &id,
                        const ScenarioService::Response &r)
{
    using json::Value;
    Value head = Value::object();
    head.set("id", id);
    head.set("ok", true);
    head.set("cached", r.cacheHit);
    if (!r.degradedTo.empty()) {
        Value d = Value::object();
        d.set("from", r.degradedFrom);
        d.set("to", r.degradedTo);
        d.set("reason", r.degradedReason);
        head.set("degraded", std::move(d));
    }
    std::string out = head.dump();
    out.pop_back(); // strip '}'
    out += ",\"result\":";
    out += r.payload;
    out += '}';
    return out;
}

} // namespace gpm::test

#endif // GPM_TESTS_REFERENCE_JSON_HH
