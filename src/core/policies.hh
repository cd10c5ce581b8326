/**
 * @file
 * Global CMP power-management policies (paper Section 5).
 *
 * Every policy receives the measured per-core samples, the predicted
 * Power/BIPS matrices and the power budget, and returns one mode per
 * core. All policies guarantee the returned assignment fits the
 * budget under the predicted matrix whenever *any* assignment does;
 * when even the all-slowest assignment exceeds the budget they
 * return all-slowest (the best they can do).
 */

#ifndef GPM_CORE_POLICIES_HH
#define GPM_CORE_POLICIES_HH

#include <memory>
#include <string>
#include <vector>

#include "core/types.hh"
#include "power/dvfs.hh"

namespace gpm
{

/** Everything a policy may consult when deciding. */
struct PolicyInput
{
    /** Measured per-core samples over the last explore interval. */
    const std::vector<CoreSample> *samples = nullptr;
    /** Predicted Power/BIPS matrices (always provided). */
    const ModeMatrix *predicted = nullptr;
    /**
     * Exact next-interval matrices (provided only to policies whose
     * wantsOracle() returns true; null otherwise).
     */
    const ModeMatrix *oracle = nullptr;
    /** Power budget for the next interval [W]. */
    Watts budgetW = 0.0;
    /** Mode table in force. */
    const DvfsTable *dvfs = nullptr;
};

/** Abstract global power-management policy. */
class Policy
{
  public:
    virtual ~Policy() = default;

    /** Short policy name ("MaxBIPS", ...). */
    virtual const char *name() const = 0;

    /** True when the simulator must supply future (oracle) matrices. */
    virtual bool wantsOracle() const { return false; }

    /** Choose the mode of every core for the next explore interval. */
    virtual std::vector<PowerMode> decide(const PolicyInput &in) = 0;
};

/**
 * Priority policy (paper 5.2.1): tasks have fixed priorities (the
 * highest-numbered core is most important). Starting from all-slowest,
 * cores are upgraded in priority order as far as the budget permits;
 * a core whose next mode would bust the budget is skipped and the
 * next core in priority order is tried.
 */
class PriorityPolicy : public Policy
{
  public:
    const char *name() const override { return "Priority"; }
    std::vector<PowerMode> decide(const PolicyInput &in) override;
};

/**
 * PullHiPushLo policy (paper 5.2.2): balances power across cores by
 * slowing the highest-power core on a budget overshoot and speeding
 * up the lowest-power core when slack is available; ties prefer
 * memory-bound tasks for slow-down (they lose the least).
 */
class PullHiPushLoPolicy : public Policy
{
  public:
    const char *name() const override { return "PullHiPushLo"; }
    std::vector<PowerMode> decide(const PolicyInput &in) override;
};

/**
 * MaxBIPS policy (paper 5.2.3): evaluates the predicted power and
 * BIPS of every mode combination and picks the feasible combination
 * with maximal chip throughput, ties going to the lower total power
 * and then to the first combination in odometer order (core 0
 * turning fastest, modes ascending). One exact search serves every
 * chip size: a depth-first branch-and-bound over the MCKP hulls
 * (mckp.hh) that returns exactly what full enumeration would, tie
 * included. Exact at any scale, but worst-case exponential — the
 * many-core studies at 64-1024 cores use the approximate engines
 * below (MaxBipsDpPolicy, WaterFillPolicy, GreedyTurboPolicy) to
 * stay inside the 500 µs decision interval.
 */
class MaxBipsPolicy : public Policy
{
  public:
    const char *name() const override { return "MaxBIPS"; }
    std::vector<PowerMode> decide(const PolicyInput &in) override;

    /**
     * The exact search shared with OraclePolicy, the history and
     * exploration variants, StaticPlanner and the cluster facility
     * arbiter: best assignment under @p matrix within @p budget_w
     * (total power <= budget). Returns all-slowest when nothing
     * fits.
     */
    static std::vector<PowerMode> solve(const ModeMatrix &matrix,
                                        Watts budget_w);

    /**
     * The dual problem (paper Section 1: "minimizing the power for
     * a given multi-core performance target has similarly not been
     * analyzed"): cheapest assignment whose total BIPS meets
     * @p target_bips (within 1e-12), ties going to more BIPS and
     * then to odometer order. The same exact search, run on the
     * negated matrix. Returns all-Turbo when even that misses the
     * target (best effort).
     */
    static std::vector<PowerMode>
    solveMinPower(const ModeMatrix &matrix, double target_bips);
};

/**
 * Approximate MaxBIPS as a multiple-choice-knapsack DP over
 * discretized power: per-core efficiency frontiers, hull-point
 * costs quantized (rounded up) onto a `grid`-bin power grid, one
 * flattened DP pass, then exact-cost greedy upgrades to spend the
 * quantization slack. O(cores x modes x grid) with a tunable
 * accuracy/latency knob — the many-core engine's accuracy anchor
 * (gap vs the MCKP LP bound well under 1% at the default grid).
 * Registered as "MaxBIPS-DP" (default grid) or "MaxBIPS-DP<G>".
 */
class MaxBipsDpPolicy : public Policy
{
  public:
    /** Default power-grid resolution [bins]: fits the DP comfortably
     *  inside the 500 us explore interval at 1024 cores while the
     *  greedy slack repair keeps the gap well under 1%; raise it via
     *  "MaxBIPS-DP<G>" when accuracy matters more than latency. */
    static constexpr unsigned defaultGrid = 64;

    explicit MaxBipsDpPolicy(unsigned grid_bins = defaultGrid);

    const char *name() const override { return label.c_str(); }
    std::vector<PowerMode> decide(const PolicyInput &in) override;

    /** The configured grid resolution [bins]. */
    unsigned gridBins() const { return grid; }

    /** The DP solver itself; exposed for tests and benches. */
    static std::vector<PowerMode> solve(const ModeMatrix &matrix,
                                        Watts budget_w,
                                        unsigned grid_bins);

  private:
    unsigned grid;
    std::string label;
};

/**
 * FastCap-style water-filling (arXiv 1603.01313): every core starts
 * at its cheapest frontier point and the budget "water level" rises
 * in level-synchronous rounds — each round upgrades every core by
 * at most one frontier level that still fits. Fairness-shaped
 * rather than ratio-greedy, O(cores x modes), no heap.
 */
class WaterFillPolicy : public Policy
{
  public:
    const char *name() const override { return "WaterFill"; }
    std::vector<PowerMode> decide(const PolicyInput &in) override;

    /** The water-filling solver; exposed for tests and benches. */
    static std::vector<PowerMode> solve(const ModeMatrix &matrix,
                                        Watts budget_w);
};

/**
 * The 1000-core Turbo Boost heuristic (arXiv 1008.1571): cheapest
 * modes everywhere, then heap-driven upgrades in globally
 * decreasing BIPS-per-watt order until nothing fits — exactly the
 * integer-greedy root of the MCKP LP relaxation, so its gap vs the
 * LP bound is at most one hull increment. O(increments x log n).
 */
class GreedyTurboPolicy : public Policy
{
  public:
    const char *name() const override { return "GreedyTurbo"; }
    std::vector<PowerMode> decide(const PolicyInput &in) override;

    /** The greedy solver; exposed for tests and benches. */
    static std::vector<PowerMode> solve(const ModeMatrix &matrix,
                                        Watts budget_w);
};

/**
 * Chip-wide DVFS baseline (paper 5.3): all cores share a single mode;
 * the fastest uniform mode that fits the budget is chosen.
 */
class ChipWideDvfsPolicy : public Policy
{
  public:
    const char *name() const override { return "ChipWideDVFS"; }
    std::vector<PowerMode> decide(const PolicyInput &in) override;
};

/**
 * Oracle upper bound (paper 5.6): MaxBIPS search on the *exact*
 * behaviour of the next explore interval (supplied by the simulator
 * from future knowledge), transition overheads included — the
 * paper's "conservative oracle".
 */
class OraclePolicy : public Policy
{
  public:
    const char *name() const override { return "Oracle"; }
    bool wantsOracle() const override { return true; }
    std::vector<PowerMode> decide(const PolicyInput &in) override;
};

/**
 * Uniform per-core budgeting baseline (in the spirit of Merkel et
 * al.): the chip budget is split into equal per-core slices and each
 * core independently picks its fastest mode that fits its slice.
 * Slack in one slice cannot help another core — the coordination
 * failure that motivates global management.
 */
class UniformBudgetPolicy : public Policy
{
  public:
    const char *name() const override { return "UniformBudget"; }
    std::vector<PowerMode> decide(const PolicyInput &in) override;
};

/**
 * MinPower policy — the dual objective the paper poses but leaves
 * unexplored: minimize chip power subject to a chip throughput
 * target, expressed as a fraction of the predicted all-Turbo BIPS.
 * Ignores the power budget; uses the same predictive Power/BIPS
 * matrices and the same exact search as MaxBIPS.
 */
class MinPowerPolicy : public Policy
{
  public:
    /** @param target_fraction required BIPS as a fraction of the
     *        predicted all-Turbo chip BIPS (e.g. 0.95). */
    explicit MinPowerPolicy(double target_fraction = 0.95);

    const char *name() const override { return "MinPower"; }
    std::vector<PowerMode> decide(const PolicyInput &in) override;

    /** The configured throughput-target fraction. */
    double targetFraction() const { return fraction; }

  private:
    double fraction;
};

/**
 * Exploration-based MaxBIPS (paper Section 5.5's rejected
 * alternative #1, implemented to quantify the rejection): instead
 * of predicting other modes analytically, the chip periodically
 * *visits* each mode for one explore interval (uniform assignment,
 * slowest first), records the measured per-core (power, BIPS), and
 * then exploits the MaxBIPS solution over the measured matrix for
 * a configurable number of intervals before re-exploring. The
 * exploration sweeps cost real time, transitions, and budget
 * violations — "for a heavy-handed adaptation like DVFS, this
 * exploration approach is essentially prohibitive".
 */
class ExplorationPolicy : public Policy
{
  public:
    /** @param exploit_intervals intervals to run the solved
     *        assignment between exploration sweeps. */
    explicit ExplorationPolicy(unsigned exploit_intervals = 8);

    const char *name() const override { return "ExploreMaxBIPS"; }
    std::vector<PowerMode> decide(const PolicyInput &in) override;

  private:
    unsigned exploitIntervals;
    unsigned phase = 0;       ///< sweep position / exploit counter
    bool exploring = true;
    std::size_t exploreMode = 0;
    /** Measured (power, bips) per core per mode; negative = unset. */
    std::vector<std::vector<std::pair<double, double>>> seen;
    std::vector<PowerMode> lastChoice;
};

/**
 * History-based MaxBIPS (paper Section 5.5's rejected alternative
 * #2): assume behaviour previously observed in a mode persists.
 * Each core keeps the last (power, BIPS) it measured at every mode;
 * matrix entries use the remembered value when one exists and fall
 * back to analytic scaling otherwise. Stale memories mislead the
 * solver when phases change — "relying on past history can be
 * misleading with temporally changing application behavior".
 */
class HistoryPolicy : public Policy
{
  public:
    HistoryPolicy() = default;

    const char *name() const override { return "HistoryMaxBIPS"; }
    std::vector<PowerMode> decide(const PolicyInput &in) override;

  private:
    /** last-seen (power, bips) per core per mode; negative = unset. */
    std::vector<std::vector<std::pair<double, double>>> seen;
};

/** Factory by policy name ("MaxBIPS", "MaxBIPS-DP" or
 *  "MaxBIPS-DP<G>" for a G-bin power grid, "WaterFill",
 *  "GreedyTurbo", "Priority", "PullHiPushLo", "ChipWideDVFS",
 *  "Oracle", "UniformBudget", "MinPower" or "MinPowerNN" for an
 *  NN% target, "ExploreMaxBIPS", "HistoryMaxBIPS"); fatal() on
 *  unknown names. */
std::unique_ptr<Policy> makePolicy(const std::string &name);

/** True when makePolicy(@p name) would succeed — the non-fatal
 *  validity check callers with structured error paths need. */
bool isPolicyName(const std::string &name);

} // namespace gpm

#endif // GPM_CORE_POLICIES_HH
