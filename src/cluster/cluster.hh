/**
 * @file
 * Cluster-level budget arbitration: the paper's global manager
 * lifted one level up. A rack holds M chips × N cores under one
 * facility power budget; each epoch the cluster manager collapses
 * every chip into a chip-level "mode column" — the chip's achievable
 * BIPS-vs-power frontier, derived from the MCKP upper-left hulls of
 * its cores' mode columns (core/mckp.hh) — and solves the facility
 * allocation across chips with the very policy kernels the per-chip
 * managers already trust (exact MaxBIPS for small M, MaxBIPS-DP /
 * WaterFill / GreedyTurbo for large M).
 *
 * This header holds the specs and the pure decision kernels:
 *
 *  - collapseChipFrontier(): chip ModeMatrix → the chip's concave
 *    achievable (power, BIPS) frontier. Every frontier point is the
 *    exact integer MCKP optimum at its own power level (the greedy
 *    hull-increment prefix coincides with the LP vertex there), so
 *    the collapse loses nothing the chip policy could have won.
 *  - quantizeFrontier(): bound a frontier to K levels (the chip's
 *    "mode column" at the cluster level).
 *  - allocateFacilityBudget(): M chip frontiers + a facility budget
 *    → per-chip watt awards, via the named policy kernel over an
 *    M × K ModeMatrix of frontier points. Honors the policy
 *    contract at the cluster level: a budget-feasible award vector
 *    whenever one exists, every-chip-at-its-floor otherwise.
 *
 * The epoch loop and the per-chip simulations live in
 * cluster_manager.hh.
 */

#ifndef GPM_CLUSTER_CLUSTER_HH
#define GPM_CLUSTER_CLUSTER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "core/mckp.hh"
#include "core/types.hh"
#include "util/units.hh"

namespace gpm
{

/** One chip of a cluster: a scenario-like per-chip spec. */
struct ChipSpec
{
    /** Benchmark names run together (one per core). */
    std::vector<std::string> combo;
    /** Inner per-chip policy (any dynamic policy name). */
    std::string policy;
    /** Per-core phase-shift stride in [0, 1); 0 = off. */
    double phaseShiftStride = 0.0;
    /** Base phase shift of every core in [0, 1); decorrelates chips
     *  that replicate the same spec. */
    double phaseOffset = 0.0;
};

/** A rack: M chips arbitrated by one facility-level policy. */
struct ClusterSpec
{
    std::vector<ChipSpec> chips;
    /** Facility-level arbitration kernel: "MaxBIPS" (exact,
     *  small M), "MaxBIPS-DP[G]", "WaterFill" or "GreedyTurbo"
     *  (large M). */
    std::string policy;
    /** Outer reallocation epochs per run. */
    unsigned epochs = 8;
    /** Epoch length [us]; must be >= the explore interval. */
    MicroSec epochUs = 2000.0;
    /** Frontier quantization levels (the chip mode-column width). */
    unsigned levels = 16;

    /** Hard caps on cluster shape (service admission). */
    static constexpr std::size_t maxChips = 64;
    static constexpr std::size_t maxTotalCores = 4096;
    static constexpr unsigned maxEpochs = 64;
    static constexpr unsigned maxLevels = 64;

    /** Sum of every chip's core count. */
    std::size_t totalCores() const;
};

/**
 * A chip collapsed to its achievable BIPS-vs-power frontier:
 * power-ascending, BIPS-ascending, concave. pts[0] is the chip
 * floor (every core at its cheapest mode); the last point is the
 * chip's unconstrained best (every core at its hull top). The
 * HullPoint mode field is unused here (a frontier point aggregates
 * many per-core modes).
 */
struct ChipFrontier
{
    std::vector<HullPoint> pts;

    /** Cheapest achievable chip power [W]. */
    Watts floorPowerW() const { return pts.front().powerW; }
};

/**
 * Collapse @p m into its chip-level frontier: start from the
 * all-cheapest assignment, then apply per-core hull increments in
 * globally decreasing BIPS-per-watt order (ties toward the lower
 * core index), recording every cumulative (power, BIPS) prefix.
 * Each prefix is the integer MCKP optimum at its own power level.
 */
ChipFrontier collapseChipFrontier(const ModeMatrix &m);

/**
 * Bound @p f to at most @p levels points (>= 2), index-spaced with
 * both endpoints kept. A frontier already within the bound is
 * returned unchanged.
 */
ChipFrontier quantizeFrontier(const ChipFrontier &f, unsigned levels);

/** Outcome of one facility-budget allocation across chips. */
struct ClusterAllocation
{
    /** Awarded budget per chip [W]; sums to <= the facility budget
     *  when feasible, to the chip floors otherwise. */
    std::vector<Watts> awardsW;
    /** False when even every-chip-at-its-floor busts the budget
     *  (awards are then the floors — the all-slowest analog). */
    bool feasible = false;
    /** Total BIPS of the selected frontier points. */
    double predictedBips = 0.0;
    /** Total power of the selected points, before the leftover
     *  slack was spread across the awards [W]. */
    Watts selectedPowerW = 0.0;
};

/**
 * Solve the facility allocation: build an M × K ModeMatrix whose
 * row i holds chip i's (quantized) frontier points fastest-first —
 * mode 0 is the chip's top point, the last mode its floor, shorter
 * frontiers padded with their floor so the all-slowest fallback is
 * exactly "every chip at its floor" — and run the named policy
 * kernel over it. Feasible leftover slack is spread evenly across
 * the awards (the inner managers cap themselves at their chip's
 * achievable top, so an over-award is never harmful), then the
 * vector is renormalized so the sum never exceeds @p facility_w.
 */
ClusterAllocation
allocateFacilityBudget(const std::vector<ChipFrontier> &chips,
                       Watts facility_w, const std::string &policy);

/** True when @p name is a facility-level arbitration kernel
 *  allocateFacilityBudget() accepts. */
bool isClusterPolicyName(const std::string &name);

} // namespace gpm

#endif // GPM_CLUSTER_CLUSTER_HH
