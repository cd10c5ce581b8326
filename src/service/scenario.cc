#include "service/scenario.hh"

#include <cmath>

#include "core/policies.hh"
#include "trace/workload.hh"

namespace gpm
{

using json::Value;

SimConfig
ScenarioSpec::simConfig() const
{
    SimConfig cfg;
    cfg.exploreUs = exploreUs;
    cfg.deltaSimUs = deltaSimUs;
    cfg.contention = contention;
    cfg.sensorNoise = sensorNoise;
    cfg.phaseShiftStride = phaseShiftStride;
    return cfg;
}

SweepSpec
ScenarioSpec::sweepSpec() const
{
    SweepSpec s;
    for (double b : budgets)
        s.add(combo, policy, b, staticFit);
    return s;
}

ClusterSpec
ScenarioSpec::clusterSpec() const
{
    ClusterSpec s = *cluster;
    s.policy = policy;
    return s;
}

Value
ScenarioSpec::simJson() const
{
    // Members are set in byte order, so canonical() need not sort
    // them (here and in every builder below).
    Value sim = Value::object();
    sim.set("contention", contention);
    sim.set("deltaSimUs", deltaSimUs);
    sim.set("exploreUs", exploreUs);
    // Only when non-zero: the default must serialize exactly as it
    // did before the knob existed, or every cached scenario hash
    // would be invalidated (same pattern as staticFit).
    if (phaseShiftStride != 0.0)
        sim.set("phaseShiftStride", phaseShiftStride);
    sim.set("sensorNoise", sensorNoise);
    return sim;
}

Value
ScenarioSpec::canonicalJson() const
{
    Value o = Value::object();
    Value bs = Value::array();
    for (double b : budgets)
        bs.push(b);
    o.set("budgets", std::move(bs));
    if (cluster) {
        // Cluster scenarios have a distinct canonical shape: a
        // "cluster" object and no "combo" key, every chip explicit
        // (replication counts are expanded at parse), per-chip
        // shifts only when non-zero, the cluster knobs always
        // explicit (new keys cannot collide with old hashes).
        Value cl = Value::object();
        Value chips = Value::array();
        for (const auto &chip : cluster->chips) {
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
        cl.set("epochUs", cluster->epochUs);
        cl.set("epochs", static_cast<double>(cluster->epochs));
        cl.set("levels", static_cast<double>(cluster->levels));
        o.set("cluster", std::move(cl));
    } else {
        Value c = Value::array();
        for (const auto &name : combo)
            c.push(name);
        o.set("combo", std::move(c));
    }
    o.set("policy", policy);
    o.set("sim", simJson());
    // staticFit only participates when it can change the result;
    // deadlineMs never does (QoS-only), so it is absent entirely.
    if (policy == "Static")
        o.set("staticFit",
              staticFit == StaticFit::Peak ? "peak" : "average");
    return o;
}

std::string
ScenarioSpec::canonicalText() const
{
    return canonicalJson().canonical();
}

std::uint64_t
ScenarioSpec::hash() const
{
    return hashOf(canonicalText());
}

std::uint64_t
ScenarioSpec::hashOf(std::string_view canonicalText)
{
    return json::fnv1a(canonicalText);
}

ScenarioSpec
degradeSpec(const ScenarioSpec &spec, const std::string &policy)
{
    ScenarioSpec out = spec;
    out.policy = policy;
    return out;
}

namespace
{

/** Cluster-specific half of validateScenario(). */
std::optional<std::string>
validateCluster(const ScenarioSpec &spec)
{
    const ClusterSpec &cl = *spec.cluster;
    if (!spec.combo.empty())
        return "give either 'combo' or 'cluster', not both";
    if (cl.chips.empty())
        return "cluster.chips must name at least one chip";
    if (cl.chips.size() > ClusterSpec::maxChips)
        return "cluster.chips exceeds " +
            std::to_string(ClusterSpec::maxChips) + " chips";
    if (cl.totalCores() > ClusterSpec::maxTotalCores)
        return "cluster exceeds " +
            std::to_string(ClusterSpec::maxTotalCores) +
            " total cores";
    for (const auto &chip : cl.chips) {
        if (chip.combo.empty())
            return "chip combo must name at least one benchmark";
        if (chip.combo.size() > ScenarioSpec::maxCores)
            return "chip combo exceeds " +
                std::to_string(ScenarioSpec::maxCores) +
                " benchmarks";
        for (const auto &name : chip.combo)
            if (!hasWorkload(name))
                return "unknown workload '" + name + "'";
        if (!isPolicyName(chip.policy))
            return "unknown chip policy '" + chip.policy + "'";
        if (!std::isfinite(chip.phaseShiftStride) ||
            chip.phaseShiftStride < 0.0 ||
            chip.phaseShiftStride >= 1.0)
            return "chip phaseShiftStride must be in [0, 1)";
        if (!std::isfinite(chip.phaseOffset) ||
            chip.phaseOffset < 0.0 || chip.phaseOffset >= 1.0)
            return "chip phaseOffset must be in [0, 1)";
    }
    if (!isClusterPolicyName(spec.policy))
        return "'" + spec.policy +
            "' is not a cluster arbitration policy";
    if (cl.epochs < 1 || cl.epochs > ClusterSpec::maxEpochs)
        return "cluster.epochs must be in [1, " +
            std::to_string(ClusterSpec::maxEpochs) + "]";
    if (cl.levels < 2 || cl.levels > ClusterSpec::maxLevels)
        return "cluster.levels must be in [2, " +
            std::to_string(ClusterSpec::maxLevels) + "]";
    if (!std::isfinite(cl.epochUs) || cl.epochUs < spec.exploreUs ||
        cl.epochUs > 1e6)
        return "cluster.epochUs must be in [exploreUs, 1e6]";
    if (spec.phaseShiftStride != 0.0)
        return "cluster scenarios take phase shifts per chip, not "
               "in sim.phaseShiftStride";
    return std::nullopt;
}

} // namespace

std::optional<std::string>
validateScenario(const ScenarioSpec &spec)
{
    if (spec.cluster) {
        if (auto err = validateCluster(spec))
            return err;
    } else {
        if (spec.combo.empty())
            return "combo must name at least one benchmark";
        if (spec.combo.size() > ScenarioSpec::maxCores)
            return "combo exceeds " +
                std::to_string(ScenarioSpec::maxCores) +
                " benchmarks";
        for (const auto &name : spec.combo)
            if (!hasWorkload(name))
                return "unknown workload '" + name + "'";
        if (spec.policy != "Static" && !isPolicyName(spec.policy))
            return "unknown policy '" + spec.policy + "'";
    }
    if (spec.budgets.empty())
        return "budgets must contain at least one fraction";
    if (spec.budgets.size() > ScenarioSpec::maxBudgets)
        return "budgets exceeds " +
            std::to_string(ScenarioSpec::maxBudgets) + " entries";
    for (double b : spec.budgets)
        if (!std::isfinite(b) || b <= 0.0 || b > 1.0)
            return "budget fractions must be in (0, 1]";
    if (!std::isfinite(spec.exploreUs) || spec.exploreUs <= 0.0 ||
        spec.exploreUs > 1e7)
        return "exploreUs must be in (0, 1e7]";
    if (!std::isfinite(spec.deltaSimUs) || spec.deltaSimUs <= 0.0 ||
        spec.deltaSimUs > spec.exploreUs)
        return "deltaSimUs must be in (0, exploreUs]";
    if (!std::isfinite(spec.sensorNoise) || spec.sensorNoise < 0.0 ||
        spec.sensorNoise > 1.0)
        return "sensorNoise must be in [0, 1]";
    if (!std::isfinite(spec.phaseShiftStride) ||
        spec.phaseShiftStride < 0.0 || spec.phaseShiftStride >= 1.0)
        return "phaseShiftStride must be in [0, 1)";
    if (!std::isfinite(spec.deadlineMs) || spec.deadlineMs < 0.0 ||
        spec.deadlineMs > 3.6e6)
        return "deadlineMs must be in [0, 3.6e6]";
    return std::nullopt;
}

namespace
{

using Fail = Expected<ScenarioSpec, std::string>;

std::optional<std::string>
parseSim(const Value &sim, ScenarioSpec &out)
{
    if (!sim.isObject())
        return "sim must be an object";
    for (const auto &[key, val] : sim.asObject()) {
        if (key == "exploreUs") {
            if (!val.isNumber())
                return "sim.exploreUs must be a number";
            out.exploreUs = val.asNumber();
        } else if (key == "deltaSimUs") {
            if (!val.isNumber())
                return "sim.deltaSimUs must be a number";
            out.deltaSimUs = val.asNumber();
        } else if (key == "contention") {
            if (!val.isBool())
                return "sim.contention must be a boolean";
            out.contention = val.asBool();
        } else if (key == "sensorNoise") {
            if (!val.isNumber())
                return "sim.sensorNoise must be a number";
            out.sensorNoise = val.asNumber();
        } else if (key == "phaseShiftStride") {
            if (!val.isNumber())
                return "sim.phaseShiftStride must be a number";
            out.phaseShiftStride = val.asNumber();
        } else {
            return "unknown sim field '" + key + "'";
        }
    }
    return std::nullopt;
}

std::optional<std::string>
parseChipCombo(const Value &val, ChipSpec &chip)
{
    if (val.isString()) {
        const auto *c = findCombination(val.asString());
        if (!c)
            return "unknown benchmark combination '" +
                val.asString() + "'";
        chip.combo = *c;
        return std::nullopt;
    }
    if (val.isArray()) {
        for (const auto &item : val.asArray()) {
            if (!item.isString())
                return std::optional<std::string>(
                    "chip combo entries must be strings");
            chip.combo.push_back(item.asString());
        }
        return std::nullopt;
    }
    return "chip combo must be an array of benchmark names or a "
           "combination key string";
}

std::optional<std::string>
parseChip(const Value &obj, ClusterSpec &cl)
{
    if (!obj.isObject())
        return "cluster.chips entries must be objects";
    ChipSpec chip;
    unsigned count = 1;
    for (const auto &[key, val] : obj.asObject()) {
        if (key == "combo") {
            if (auto err = parseChipCombo(val, chip))
                return err;
        } else if (key == "policy") {
            if (!val.isString())
                return std::optional<std::string>(
                    "chip policy must be a string");
            chip.policy = val.asString();
        } else if (key == "count") {
            if (!val.isNumber() || val.asNumber() < 1.0 ||
                val.asNumber() >
                    static_cast<double>(ClusterSpec::maxChips) ||
                val.asNumber() != std::floor(val.asNumber()))
                return "chip count must be an integer in [1, " +
                    std::to_string(ClusterSpec::maxChips) + "]";
            count = static_cast<unsigned>(val.asNumber());
        } else if (key == "phaseShiftStride") {
            if (!val.isNumber())
                return std::optional<std::string>(
                    "chip phaseShiftStride must be a number");
            chip.phaseShiftStride = val.asNumber();
        } else if (key == "phaseOffset") {
            if (!val.isNumber())
                return std::optional<std::string>(
                    "chip phaseOffset must be a number");
            chip.phaseOffset = val.asNumber();
        } else {
            return "unknown chip field '" + key + "'";
        }
    }
    if (chip.combo.empty() && !obj.find("combo"))
        return std::optional<std::string>(
            "missing required chip field 'combo'");
    if (chip.policy.empty())
        return std::optional<std::string>(
            "missing required chip field 'policy'");
    // Replication is a parse-time convenience; the canonical form
    // lists every chip explicitly. The chip cap is enforced by
    // validateCluster after expansion.
    for (unsigned i = 0; i < count; i++) {
        if (cl.chips.size() > ClusterSpec::maxChips)
            return "cluster.chips exceeds " +
                std::to_string(ClusterSpec::maxChips) + " chips";
        cl.chips.push_back(chip);
    }
    return std::nullopt;
}

std::optional<std::string>
parseCluster(const Value &obj, ScenarioSpec &out)
{
    if (!obj.isObject())
        return std::optional<std::string>(
            "cluster must be an object");
    ClusterSpec cl;
    for (const auto &[key, val] : obj.asObject()) {
        if (key == "chips") {
            if (!val.isArray())
                return std::optional<std::string>(
                    "cluster.chips must be an array");
            for (const auto &item : val.asArray())
                if (auto err = parseChip(item, cl))
                    return err;
        } else if (key == "epochs") {
            if (!val.isNumber() || val.asNumber() < 1.0 ||
                val.asNumber() >
                    static_cast<double>(ClusterSpec::maxEpochs) ||
                val.asNumber() != std::floor(val.asNumber()))
                return "cluster.epochs must be an integer in [1, " +
                    std::to_string(ClusterSpec::maxEpochs) + "]";
            cl.epochs = static_cast<unsigned>(val.asNumber());
        } else if (key == "epochUs") {
            if (!val.isNumber())
                return std::optional<std::string>(
                    "cluster.epochUs must be a number");
            cl.epochUs = val.asNumber();
        } else if (key == "levels") {
            if (!val.isNumber() || val.asNumber() < 2.0 ||
                val.asNumber() >
                    static_cast<double>(ClusterSpec::maxLevels) ||
                val.asNumber() != std::floor(val.asNumber()))
                return "cluster.levels must be an integer in [2, " +
                    std::to_string(ClusterSpec::maxLevels) + "]";
            cl.levels = static_cast<unsigned>(val.asNumber());
        } else {
            return "unknown cluster field '" + key + "'";
        }
    }
    if (cl.chips.empty() && !obj.find("chips"))
        return std::optional<std::string>(
            "missing required cluster field 'chips'");
    out.cluster = std::move(cl);
    return std::nullopt;
}

} // namespace

Expected<ScenarioSpec, std::string>
parseScenario(const Value &scenario)
{
    if (!scenario.isObject())
        return Fail::failure("scenario must be a JSON object");

    ScenarioSpec out;
    bool saw_budget = false, saw_budgets = false,
         saw_static_fit = false;

    for (const auto &[key, val] : scenario.asObject()) {
        if (key == "combo") {
            if (val.isString()) {
                const auto *c = findCombination(val.asString());
                if (!c)
                    return Fail::failure(
                        "unknown benchmark combination '" +
                        val.asString() + "'");
                out.combo = *c;
            } else if (val.isArray()) {
                for (const auto &item : val.asArray()) {
                    if (!item.isString())
                        return Fail::failure(
                            "combo entries must be strings");
                    out.combo.push_back(item.asString());
                }
            } else {
                return Fail::failure(
                    "combo must be an array of benchmark names or "
                    "a combination key string");
            }
        } else if (key == "policy") {
            if (!val.isString())
                return Fail::failure("policy must be a string");
            out.policy = val.asString();
        } else if (key == "budget") {
            if (!val.isNumber())
                return Fail::failure("budget must be a number");
            out.budgets = {val.asNumber()};
            saw_budget = true;
        } else if (key == "budgets") {
            if (!val.isArray())
                return Fail::failure(
                    "budgets must be an array of numbers");
            for (const auto &item : val.asArray()) {
                if (!item.isNumber())
                    return Fail::failure(
                        "budgets entries must be numbers");
                out.budgets.push_back(item.asNumber());
            }
            saw_budgets = true;
        } else if (key == "staticFit") {
            if (!val.isString() || (val.asString() != "peak" &&
                                    val.asString() != "average"))
                return Fail::failure(
                    "staticFit must be \"peak\" or \"average\"");
            out.staticFit = val.asString() == "peak"
                ? StaticFit::Peak
                : StaticFit::Average;
            saw_static_fit = true;
        } else if (key == "cluster") {
            if (auto err = parseCluster(val, out))
                return Fail::failure(std::move(*err));
        } else if (key == "sim") {
            if (auto err = parseSim(val, out))
                return Fail::failure(std::move(*err));
        } else if (key == "deadlineMs") {
            if (!val.isNumber())
                return Fail::failure("deadlineMs must be a number");
            out.deadlineMs = val.asNumber();
        } else {
            return Fail::failure("unknown scenario field '" + key +
                                 "'");
        }
    }

    if (out.combo.empty() && !scenario.find("combo") && !out.cluster)
        return Fail::failure(
            "missing required field 'combo' or 'cluster'");
    if (out.policy.empty())
        return Fail::failure("missing required field 'policy'");
    if (saw_budget && saw_budgets)
        return Fail::failure(
            "give either 'budget' or 'budgets', not both");
    if (!saw_budget && !saw_budgets)
        return Fail::failure(
            "missing required field 'budget' or 'budgets'");
    if (saw_static_fit && out.policy != "Static")
        return Fail::failure(
            "staticFit only applies to policy \"Static\"");

    if (auto err = validateScenario(out))
        return Fail::failure(std::move(*err));
    return out;
}

namespace
{

/**
 * The payload around an already-built results array: "results"
 * sorts before "scenario", so splicing the scenario's canonical text
 * in after the array keeps the payload canonical without rebuilding
 * the scenario's tree.
 */
std::string
payloadJson(const Value &results, std::string_view scenarioText)
{
    std::string out = "{\"results\":";
    results.canonical(out);
    out += ",\"scenario\":";
    out += scenarioText;
    out += '}';
    return out;
}

} // namespace

std::string
serializeResults(std::string_view scenarioText,
                 const std::vector<PolicyEval> &evals)
{
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
        m.set("weightedSpeedupLoss",
              ev.metrics.weightedSpeedupLoss);
        r.set("metrics", std::move(m));

        r.set("policy", ev.policy);
        r.set("predBipsError", ev.predBipsError);
        r.set("predPowerError", ev.predPowerError);

        results.push(std::move(r));
    }
    return payloadJson(results, scenarioText);
}

std::string
serializeResults(const ScenarioSpec &spec,
                 const std::vector<PolicyEval> &evals)
{
    return serializeResults(spec.canonicalText(), evals);
}

std::string
serializeClusterResults(const ScenarioSpec &spec,
                        std::string_view scenarioText,
                        const std::vector<ClusterRunResult> &runs)
{
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
    return payloadJson(results, scenarioText);
}

} // namespace gpm
