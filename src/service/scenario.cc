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

namespace
{

// The writers below append canonical JSON straight to one string.
// Members go out in byte order of their keys, at every level, so the
// text is what json::Value::canonical() prints for the same tree;
// tests/reference_json.hh keeps those trees, and test_json_writers
// compares the two byte for byte.

/** Append @p key, a literal carrying its own punctuation (such as
 *  ",\"bips\":"), then @p d. */
void
putNumber(std::string &out, std::string_view key, double d)
{
    out += key;
    json::formatDouble(out, d);
}

/** putNumber() for a count. It prints through the double, in the same
 *  "%g" form as every other number. */
void
putCount(std::string &out, std::string_view key, std::uint64_t n)
{
    putNumber(out, key, static_cast<double>(n));
}

/** Append @p key, then @p s as a JSON string. */
void
putString(std::string &out, std::string_view key, std::string_view s)
{
    out += key;
    json::formatString(out, s);
}

/** Append @p xs as a JSON array of numbers. */
void
putNumbers(std::string &out, const std::vector<double> &xs)
{
    out += '[';
    for (std::size_t i = 0; i < xs.size(); i++) {
        if (i)
            out += ',';
        json::formatDouble(out, xs[i]);
    }
    out += ']';
}

/** Append @p names as a JSON array of strings. */
void
putNames(std::string &out, const std::vector<std::string> &names)
{
    out += '[';
    for (std::size_t i = 0; i < names.size(); i++) {
        if (i)
            out += ',';
        json::formatString(out, names[i]);
    }
    out += ']';
}

void
writeSim(std::string &out, const ScenarioSpec &spec)
{
    out += "{\"contention\":";
    out += spec.contention ? "true" : "false";
    putNumber(out, ",\"deltaSimUs\":", spec.deltaSimUs);
    putNumber(out, ",\"exploreUs\":", spec.exploreUs);
    // Only when non-zero: the default must serialize exactly as it
    // did before the knob existed, or every cached scenario hash
    // would be invalidated (same pattern as staticFit).
    if (spec.phaseShiftStride != 0.0)
        putNumber(out, ",\"phaseShiftStride\":", spec.phaseShiftStride);
    putNumber(out, ",\"sensorNoise\":", spec.sensorNoise);
    out += '}';
}

void
writeCluster(std::string &out, const ClusterSpec &cl)
{
    // Cluster scenarios have a distinct canonical shape: a "cluster"
    // object and no "combo" key, every chip explicit (replication
    // counts are expanded at parse), per-chip shifts only when
    // non-zero, the cluster knobs always explicit (new keys cannot
    // collide with old hashes).
    out += "{\"chips\":[";
    for (std::size_t k = 0; k < cl.chips.size(); k++) {
        const ChipSpec &chip = cl.chips[k];
        out += k ? ",{\"combo\":" : "{\"combo\":";
        putNames(out, chip.combo);
        if (chip.phaseOffset != 0.0)
            putNumber(out, ",\"phaseOffset\":", chip.phaseOffset);
        if (chip.phaseShiftStride != 0.0)
            putNumber(out, ",\"phaseShiftStride\":", chip.phaseShiftStride);
        putString(out, ",\"policy\":", chip.policy);
        out += '}';
    }
    putNumber(out, "],\"epochUs\":", cl.epochUs);
    putCount(out, ",\"epochs\":", cl.epochs);
    putCount(out, ",\"levels\":", cl.levels);
    out += '}';
}

} // namespace

std::string
ScenarioSpec::simText() const
{
    std::string out;
    writeSim(out, *this);
    return out;
}

Value
ScenarioSpec::simJson() const
{
    return json::parse(simText()).value();
}

std::string
ScenarioSpec::canonicalText() const
{
    std::size_t cores = combo.size();
    if (cluster)
        cores = cluster->totalCores();
    std::string out;
    out.reserve(192 + 12 * cores + 24 * budgets.size());
    out += "{\"budgets\":";
    putNumbers(out, budgets);
    if (cluster) {
        out += ",\"cluster\":";
        writeCluster(out, *cluster);
    } else {
        out += ",\"combo\":";
        putNames(out, combo);
    }
    putString(out, ",\"policy\":", policy);
    out += ",\"sim\":";
    writeSim(out, *this);
    // staticFit only participates when it can change the result;
    // deadlineMs never does (QoS-only), so it is absent entirely.
    if (policy == "Static")
        out += staticFit == StaticFit::Peak
            ? ",\"staticFit\":\"peak\""
            : ",\"staticFit\":\"average\"";
    out += '}';
    return out;
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

/** The rejection of exact-search policy @p policy over @p n
 *  @p what past ScenarioSpec::maxExactCores, or nullopt when
 *  within it. */
std::optional<std::string>
exactSearchLimit(const std::string &policy, std::size_t n,
                 const char *what)
{
    if (n <= ScenarioSpec::maxExactCores || !isExactSearchPolicy(policy))
        return std::nullopt;
    return "'" + policy + "' is an exact search, limited to " +
        std::to_string(ScenarioSpec::maxExactCores) + " " + what +
        " (got " + std::to_string(n) +
        "); GreedyTurbo and WaterFill serve larger shapes";
}

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
        if (auto err = exactSearchLimit(chip.policy, chip.combo.size(),
                                        "cores per chip"))
            return err;
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
    if (auto err = exactSearchLimit(spec.policy, cl.chips.size(),
                                    "chips"))
        return err;
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
        if (auto err = exactSearchLimit(spec.policy, spec.combo.size(),
                                        "cores per chip"))
            return err;
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
 * Open a payload: "results" sorts before "scenario", so the results
 * go first and closePayload() splices the scenario's canonical text
 * in after them.
 */
std::string
openPayload(std::size_t results, std::string_view scenarioText)
{
    std::string out;
    out.reserve(32 + 512 * results + scenarioText.size());
    out += "{\"results\":[";
    return out;
}

std::string
closePayload(std::string out, std::string_view scenarioText)
{
    out += "],\"scenario\":";
    out += scenarioText;
    out += '}';
    return out;
}

} // namespace

std::string
serializeResults(std::string_view scenarioText,
                 const std::vector<PolicyEval> &evals)
{
    std::string out = openPayload(evals.size(), scenarioText);
    for (std::size_t i = 0; i < evals.size(); i++) {
        const PolicyEval &ev = evals[i];
        putNumber(out, i ? ",{\"budget\":" : "{\"budget\":",
                  ev.budgetFrac);
        putCount(out, ",\"manager\":{\"decisions\":",
                 ev.managerStats.decisions);
        putCount(out, ",\"modeSwitches\":", ev.managerStats.modeSwitches);
        putCount(out, ",\"overshoots\":", ev.managerStats.overshoots);
        putNumber(out, "},\"metrics\":{\"avgChipPowerW\":",
                  ev.metrics.avgChipPowerW);
        putNumber(out, ",\"chipBips\":", ev.metrics.chipBips);
        putNumber(out, ",\"perfDegradation\":", ev.metrics.perfDegradation);
        putNumber(out, ",\"powerOverBudget\":", ev.metrics.powerOverBudget);
        putNumber(out, ",\"powerSavings\":", ev.metrics.powerSavings);
        putNumber(out, ",\"weightedSlowdown\":",
                  ev.metrics.weightedSlowdown);
        putNumber(out, ",\"weightedSpeedupLoss\":",
                  ev.metrics.weightedSpeedupLoss);
        putString(out, "},\"policy\":", ev.policy);
        putNumber(out, ",\"predBipsError\":", ev.predBipsError);
        putNumber(out, ",\"predPowerError\":", ev.predPowerError);
        out += '}';
    }
    return closePayload(std::move(out), scenarioText);
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
    std::string out = openPayload(runs.size(), scenarioText);
    for (std::size_t k = 0; k < runs.size(); k++) {
        const ClusterRunResult &run = runs[k];
        putNumber(out, k ? ",{\"budget\":" : "{\"budget\":",
                  spec.budgets[k]);
        out += ",\"chips\":[";
        for (std::size_t i = 0; i < run.chips.size(); i++) {
            const ChipOutcome &c = run.chips[i];
            putNumber(out, i ? ",{\"awardedMeanW\":" : "{\"awardedMeanW\":",
                      c.awardedMeanW);
            putNumber(out, ",\"bips\":", c.bips);
            putCount(out, ",\"decisions\":", c.managerStats.decisions);
            putCount(out, ",\"modeSwitches\":", c.managerStats.modeSwitches);
            putCount(out, ",\"overshoots\":", c.managerStats.overshoots);
            putNumber(out, ",\"powerW\":", c.avgCorePowerW);
            putNumber(out, ",\"refPowerW\":", c.refPowerW);
            out += '}';
        }
        out += "],\"epochs\":[";
        for (std::size_t e = 0; e < run.epochs.size(); e++) {
            const EpochTrace &t = run.epochs[e];
            out += e ? ",{\"awards\":" : "{\"awards\":";
            putNumbers(out, t.awardsW);
            out += t.feasible ? ",\"feasible\":true"
                              : ",\"feasible\":false";
            putNumber(out, ",\"predictedBips\":", t.predictedBips);
            out += '}';
        }
        putNumber(out, "],\"metrics\":{\"budgetUtilization\":",
                  run.budgetUtilization);
        putNumber(out, ",\"clusterBips\":", run.clusterBips);
        putNumber(out, ",\"clusterPowerW\":", run.clusterPowerW);
        putNumber(out, ",\"facilityBudgetW\":", run.facilityBudgetW);
        putString(out, "},\"policy\":", spec.policy);
        out += '}';
    }
    return closePayload(std::move(out), scenarioText);
}

} // namespace gpm
