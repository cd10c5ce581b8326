/**
 * @file
 * ScenarioSpec — the scenario service's request schema: one
 * benchmark combination, one policy, one or more budget fractions,
 * and the simulator knobs a client may turn. A scenario maps 1:1
 * onto a SweepSpec (one point per budget) plus the SimConfig its
 * runner must use, and has a canonical JSON form whose hash is the
 * result-cache key: two requests that mean the same thing — key
 * order, "budget" vs "budgets":[...], combination key vs explicit
 * benchmark list — hash identically.
 *
 * Parsing is strict: unknown fields, out-of-range knobs, unknown
 * benchmark/policy names and malformed shapes are all rejected with
 * a message the service returns verbatim in its "invalid" error
 * response.
 */

#ifndef GPM_SERVICE_SCENARIO_HH
#define GPM_SERVICE_SCENARIO_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster_manager.hh"
#include "core/static_planner.hh"
#include "metrics/experiment.hh"
#include "service/json.hh"

namespace gpm
{

struct ScenarioSpec
{
    /** Benchmark names run together (one per core). */
    std::vector<std::string> combo;
    /** Policy name; "Static" routes through evaluateStatic(). */
    std::string policy;
    /** Budget fractions, one sweep point each. */
    std::vector<double> budgets;
    /** Fitting rule when policy == "Static". */
    StaticFit staticFit = StaticFit::Peak;

    /**
     * Cluster scenario: when set, the request describes a rack of
     * chips under one facility budget instead of a single chip, and
     * `policy` names the facility-level arbitration kernel (see
     * cluster/cluster.hh). Mutually exclusive with `combo`. The
     * embedded spec's own policy field stays empty — clusterSpec()
     * assembles the complete spec. Cluster scenarios serialize a
     * distinct canonical shape (a "cluster" object, no "combo"
     * key), so their hashes can never collide with flat scenarios'.
     */
    std::optional<ClusterSpec> cluster;

    /** Client-tunable SimConfig knobs (defaults mirror SimConfig). */
    double exploreUs = 500.0;
    double deltaSimUs = 50.0;
    bool contention = false;
    double sensorNoise = 0.0;
    /** Per-core workload phase-shift stride in [0, 1); 0 = off.
     *  Serialized into the canonical form only when non-zero so
     *  pre-existing scenario hashes are unaffected. */
    double phaseShiftStride = 0.0;

    /**
     * Optional per-request deadline in milliseconds (0 = none),
     * measured from service admission. The queue sheds a request
     * whose deadline expired before a worker picked it up with a
     * structured "deadline_exceeded" error instead of burning a
     * worker on a result nobody is waiting for. A QoS knob, not
     * part of the scenario's identity: it does NOT participate in
     * canonicalText()/hash(), so requests that differ only in
     * deadline share one cache entry.
     */
    double deadlineMs = 0.0;

    /** Hard caps on request shape (many-core scenarios go to 1024
     *  cores; see trace/workload.hh manyCoreCombo). */
    static constexpr std::size_t maxCores = 1024;
    static constexpr std::size_t maxBudgets = 64;
    /** Cap on the cores of a chip an exact-search policy decides
     *  (isExactSearchPolicy), and on the chips facility MaxBIPS
     *  arbitrates. The search cannot cut a subtree whose bound ties
     *  the best answer, so identical cores make it enumerate; at 8
     *  one decision over the 3-mode table has at most 3^8 = 6,561
     *  leaves. 8 cores is the paper's largest chip. */
    static constexpr std::size_t maxExactCores = 8;

    /** The SimConfig an ExperimentRunner needs for this scenario. */
    SimConfig simConfig() const;

    /** The equivalent sweep: one point per budget fraction. Flat
     *  scenarios only. */
    SweepSpec sweepSpec() const;

    /** The complete ClusterSpec (cluster + the top-level policy).
     *  Cluster scenarios only. */
    ClusterSpec clusterSpec() const;

    /** The sim-knob subsection of the canonical text, as written
     *  there (also the service's runner-cache key). */
    std::string simText() const;

    /** simText(), parsed. */
    json::Value simJson() const;

    /** Canonical JSON with every field explicit, written straight
     *  to bytes (object keys byte-sorted, numbers by
     *  json::formatDouble): the bytes the cache key hashes and every
     *  payload echoes. */
    std::string canonicalText() const;

    /** Cache key: hashOf(canonicalText()). */
    std::uint64_t hash() const;

    /** The cache key of the scenario whose canonicalText() is
     *  @p canonicalText (FNV-1a of its bytes). */
    static std::uint64_t hashOf(std::string_view canonicalText);
};

/**
 * Semantic validation of an already-populated spec (parseScenario
 * applies it too): known names, non-empty shapes, knob ranges.
 * Returns the rejection reason, or nullopt when valid.
 */
std::optional<std::string>
validateScenario(const ScenarioSpec &spec);

/**
 * A copy of @p spec solving with @p policy instead — what a
 * degraded execution actually runs and serializes (see
 * degrade.hh). For cluster scenarios this substitutes the
 * facility-level arbitration kernel; the chips keep their inner
 * policies. The copy has its own canonical form and hash, so a
 * degraded payload can never collide with the original scenario's
 * cache entry.
 */
ScenarioSpec degradeSpec(const ScenarioSpec &spec,
                         const std::string &policy);

/**
 * Build a ScenarioSpec from a parsed JSON scenario object.
 * Accepted fields:
 *   combo     array of benchmark names, or a combination key
 *             string: Table 2 ("2way1", ...) or many-core
 *             ("many64" ... "many1024")   } exactly one
 *   cluster   cluster object (below)      } of the two
 *   policy    policy name or "Static"; for cluster scenarios a
 *             facility arbitration kernel  [required]
 *   budget    single budget fraction     } exactly one
 *   budgets   array of budget fractions  } of the two
 *   staticFit  "peak" | "average" (policy "Static" only)
 *   sim        object: exploreUs, deltaSimUs, contention,
 *              sensorNoise, phaseShiftStride (all optional;
 *              phaseShiftStride must stay 0 for cluster scenarios —
 *              phase geometry is per-chip there)
 *   deadlineMs queue deadline in ms (optional; see the field)
 *
 * The cluster object:
 *   chips     array of chip objects        [required]
 *               combo    names array or combination key [required]
 *               policy   inner dynamic policy name      [required]
 *               count    replicate this chip N times (default 1)
 *               phaseShiftStride  per-core stride in [0, 1)
 *               phaseOffset       chip-wide base shift in [0, 1)
 *   epochs    outer reallocation epochs (default 8)
 *   epochUs   epoch length in us (default 2000)
 *   levels    frontier quantization levels (default 16)
 * Anything else is rejected.
 */
Expected<ScenarioSpec, std::string>
parseScenario(const json::Value &scenario);

/**
 * Deterministic result payload for a served scenario: the canonical
 * scenario echoed back plus one result object per sweep point, all
 * serialized canonically (sorted keys, shortest round-trip
 * doubles). Identical evals always produce identical bytes — the
 * cache stores exactly this string. @p scenarioText is the
 * scenario's canonicalText(), spliced in as it stands.
 */
std::string serializeResults(std::string_view scenarioText,
                             const std::vector<PolicyEval> &evals);

/** serializeResults() of @p spec's canonicalText(). */
std::string serializeResults(const ScenarioSpec &spec,
                             const std::vector<PolicyEval> &evals);

/**
 * Deterministic result payload for a served *cluster* scenario: the
 * canonical scenario plus, per budget fraction, cluster metrics,
 * per-chip outcomes and the per-epoch reallocation trace.
 * @p scenarioText is @p spec's canonicalText().
 */
std::string
serializeClusterResults(const ScenarioSpec &spec,
                        std::string_view scenarioText,
                        const std::vector<ClusterRunResult> &runs);

} // namespace gpm

#endif // GPM_SERVICE_SCENARIO_HH
