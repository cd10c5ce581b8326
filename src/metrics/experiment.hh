/**
 * @file
 * ExperimentRunner: the harness the per-figure benchmarks drive.
 * Binds a ProfileLibrary + DvfsTable + SimConfig, keeps one bound
 * simulator per benchmark combination, and evaluates dynamic
 * policies, optimistic-static assignments and budget sweeps —
 * point-by-point, or fanned across a thread pool with trySweep().
 */

#ifndef GPM_METRICS_EXPERIMENT_HH
#define GPM_METRICS_EXPERIMENT_HH

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/static_planner.hh"
#include "metrics/metrics.hh"
#include "sim/cmp_sim.hh"
#include "trace/phase_profile.hh"
#include "util/cancel.hh"
#include "util/expected.hh"

namespace gpm
{

/**
 * Why a SweepSpec was rejected before any simulation ran: the index
 * of the offending point and a human-readable reason. Service-layer
 * callers turn this into an "invalid scenario" response instead of
 * dying on a fatal() deep inside a run.
 */
struct SweepError
{
    std::size_t pointIndex = 0;
    std::string message;
    /** True when the sweep was abandoned by a CancelToken rather
     *  than rejected: at least one point was skipped, and the
     *  partial results were discarded. */
    bool cancelled = false;
};

/** One evaluated (policy, budget) point. */
struct PolicyEval
{
    std::string policy;
    double budgetFrac = 1.0;
    RunMetrics metrics;
    /** Prediction errors (only meaningful for predictive policies). */
    double predPowerError = 0.0;
    double predBipsError = 0.0;
    ManagerStats managerStats;
};

/** One independent (combo, policy, budget) point of a sweep. */
struct SweepPoint
{
    std::vector<std::string> combo;
    /** Policy name; "Static" routes through evaluateStatic(). */
    std::string policy;
    double budgetFrac = 1.0;
    /** Fitting rule when policy == "Static". */
    StaticFit staticFit = StaticFit::Peak;
};

/**
 * An ordered list of sweep points. Results come back in exactly
 * this order regardless of how many threads evaluate them, so a
 * spec is also the deterministic serial-equivalence contract:
 * trySweep(spec, k) is bitwise-identical to evaluating the points
 * one by one in spec order.
 */
struct SweepSpec
{
    std::vector<SweepPoint> points;

    /** Append one point. */
    void add(std::vector<std::string> combo, std::string policy,
             double budget_frac, StaticFit fit = StaticFit::Peak);

    /**
     * Append the full cross product combos x policies x budgets in
     * row-major order (combo outermost, budget innermost) — the
     * iteration order of the pre-sweep serial benchmarks.
     */
    void addGrid(const std::vector<std::vector<std::string>> &combos,
                 const std::vector<std::string> &policies,
                 const std::vector<double> &budget_fracs);

    std::size_t size() const { return points.size(); }
    bool empty() const { return points.empty(); }
};

/**
 * Drives CmpSim for whole experiments.
 *
 * Per combination the runner keeps, for its lifetime, the bound
 * CmpSim (which owns the combination's all-Turbo reference run and
 * held-mode memo, see sim/cmp_sim.hh) and, from the first Static
 * point on, every core's whole-run mode statistics.
 *
 * Thread-safety contract: all evaluation entry points (evaluate,
 * evaluateStatic, timeline, reference, referencePowerW, trySweep)
 * may be called concurrently on one runner. The per-combo cache is
 * a map of once-initialized entries behind a shared_mutex; each
 * entry's CmpSim is built exactly once under std::call_once and the
 * Static statistics under a second once_flag, after which each is
 * read-only; CmpSim itself is reentrant (see sim/cmp_sim.hh). The
 * ProfileLibrary performs its own locking.
 */
class ExperimentRunner
{
  public:
    /**
     * @param lib   profile library (profiles built/loaded on demand)
     * @param dvfs  mode table
     * @param cfg   simulator configuration for every run
     */
    ExperimentRunner(ProfileLibrary &lib, const DvfsTable &dvfs,
                     SimConfig cfg = SimConfig{});

    /** Profiles for a combination (built on demand). */
    std::vector<const WorkloadProfile *>
    profilesFor(const std::vector<std::string> &combo);

    /** All-Turbo reference result for a combination (cached). */
    const SimResult &reference(const std::vector<std::string> &combo);

    /** All-Turbo average chip power — the budget base [W]. */
    Watts referencePowerW(const std::vector<std::string> &combo);

    /**
     * Evaluate a dynamic policy at a constant budget fraction.
     * Policy names: any makePolicy() name (MaxBIPS, Priority,
     * PullHiPushLo, ChipWideDVFS, Oracle, ...).
     */
    PolicyEval evaluate(const std::vector<std::string> &combo,
                        const std::string &policy, double budget_frac);

    /**
     * Evaluate the optimistic static assignment (paper Section 5.7):
     * best fixed modes by whole-run oracle stats, then simulated.
     * By default the fixed assignment must fit the budget at its
     * peak explore window (a static configuration has no controller
     * to correct overshoots); pass StaticFit::Average for the
     * optimistic average-fitting ablation.
     */
    PolicyEval evaluateStatic(const std::vector<std::string> &combo,
                              double budget_frac,
                              StaticFit fit = StaticFit::Peak);

    /**
     * Evaluate every point of @p spec, fanning independent points
     * across the process-wide thread pool (a one-point spec runs on
     * the calling thread), and return the PolicyEvals in spec
     * order. Results are bitwise-identical to a serial
     * evaluate()/evaluateStatic() loop over the same points for any
     * concurrency (every point is an independent, deterministic
     * simulation; threads only decide *when* a point runs, never
     * what it computes).
     *
     * The spec is checked up front: a point that names an unknown
     * policy or workload, has an empty combo, or a non-positive or
     * non-finite budget fraction is returned as a SweepError before
     * anything runs. Cooperative cancellation: @p cancel, when
     * non-null, is checked before every point; if it fires mid-sweep
     * (at least one point was skipped) the partial result is
     * discarded and a SweepError with cancelled = true is returned.
     * Cancellation decides *whether* a point runs, never what it
     * computes.
     *
     * @param concurrency threads this sweep uses from the pool,
     *        the calling thread included; 0 = GPM_THREADS env or
     *        hardware concurrency
     * @param cancel optional cooperative cancellation token
     */
    Expected<std::vector<PolicyEval>, SweepError>
    trySweep(const SweepSpec &spec, std::size_t concurrency = 0,
             const CancelToken *cancel = nullptr);

    /**
     * Full timeline run of a policy under an arbitrary budget
     * schedule (Figures 3 and 6).
     */
    SimResult timeline(const std::vector<std::string> &combo,
                       const std::string &policy,
                       const BudgetSchedule &budget);

  private:
    struct ComboCache
    {
        std::once_flag init;
        std::unique_ptr<CmpSim> sim;
        std::once_flag staticInit;
        /** Whole-run stats of each core at each mode, for Static. */
        std::vector<std::vector<StaticModeStats>> staticStats;
    };

    /** The first point of @p spec that cannot run, if any. */
    static std::optional<SweepError> validate(const SweepSpec &spec);

    ComboCache &cacheFor(const std::vector<std::string> &combo);
    static std::string keyOf(const std::vector<std::string> &combo);

    ProfileLibrary &lib;
    const DvfsTable &dvfs;
    SimConfig cfg;
    Watts idlePowerW;
    /** Guards the cache *map*; entry initialization is per-entry
     *  via ComboCache::init so distinct combos build in parallel. */
    std::shared_mutex cacheMtx;
    std::map<std::string, std::unique_ptr<ComboCache>> cache;
};

} // namespace gpm

#endif // GPM_METRICS_EXPERIMENT_HH
