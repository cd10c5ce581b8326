/**
 * @file
 * Shared multiple-choice-knapsack (MCKP) decision kernels.
 *
 * Every budget-partitioning policy — the exact MaxBIPS search,
 * DP-over-discretized-power, water-filling, greedy turbo — works on
 * the same substrate: each core's (power, BIPS) mode points reduced
 * to their *efficiency frontier* (the upper-left convex hull, whose
 * marginal BIPS-per-watt ratios decrease along the hull). This file
 * provides that substrate once, in flat cache-friendly arrays sized
 * for many-core chips (N up to 1024+):
 *
 *  - FrontierSet / buildFrontiers(): per-core hulls in one flat
 *    power-ascending point array, with the *mode index of every hull
 *    point recorded while the hull is built* (never re-found by
 *    float comparison afterwards);
 *  - greedyUpgradeHeap(): hull upgrades applied in globally
 *    decreasing BIPS-per-watt order through a binary heap —
 *    O(increments * log n) instead of an O(n * k) rescan per
 *    upgrade. Seeds the exact search's cut value and *is* the
 *    GreedyTurbo policy;
 *  - mckpUpperBound(): the fractional (LP-relaxation) optimum, a
 *    valid upper bound on any integer assignment's BIPS — the bound
 *    the exact search evaluates over each node's free cores, and
 *    the gap reference for the many-core benches;
 *  - ModeColumns: a per-mode column (SoA) snapshot of a ModeMatrix
 *    for vectorizable column passes (uniform-mode totals, grid cost
 *    quantization).
 */

#ifndef GPM_CORE_MCKP_HH
#define GPM_CORE_MCKP_HH

#include <cstdint>
#include <vector>

#include "core/types.hh"

namespace gpm
{

/** One point of a core's efficiency frontier. */
struct HullPoint
{
    /** Predicted power at this mode [W]. */
    double powerW = 0.0;
    /** Predicted BIPS at this mode. */
    double bips = 0.0;
    /** The mode this point came from (recorded at hull build). */
    PowerMode mode = 0;
};

/**
 * Per-core efficiency frontiers of a ModeMatrix, flattened: core c's
 * hull points live at pts[begin[c] .. begin[c + 1]), power-ascending
 * with strictly increasing BIPS and decreasing marginal ratios.
 * Point 0 of each core is its cheapest mode.
 */
struct FrontierSet
{
    std::vector<HullPoint> pts;
    /** Per-core offsets into pts; size numCores() + 1. */
    std::vector<std::uint32_t> begin;
    /** Sum of every core's cheapest-mode power [W]. */
    double minTotalPowerW = 0.0;
    /** Sum of every core's cheapest-mode BIPS. */
    double baseTotalBips = 0.0;
    /** Smallest single hull-increment power across all cores [W];
     *  +inf when no core has an upgrade. Lets greedy fills stop as
     *  soon as the leftover budget cannot fit any increment instead
     *  of draining the heap through doomed pops. */
    double minIncPowerW = 0.0;

    std::size_t numCores() const { return begin.size() - 1; }

    /** Hull size of core @p c. */
    std::size_t sizeOf(std::size_t c) const
    {
        return begin[c + 1] - begin[c];
    }

    /** Hull point @p h of core @p c. */
    const HullPoint &at(std::size_t c, std::size_t h) const
    {
        return pts[begin[c] + h];
    }
};

/**
 * Build the efficiency frontiers of @p m. O(n * k log k). The mode
 * index of every hull point is recorded as the hull is built, so
 * duplicated (power, BIPS) points always resolve to a definite mode.
 */
FrontierSet buildFrontiers(const ModeMatrix &m);

/** Outcome of a greedy hull fill. */
struct GreedyResult
{
    /** Total power of the final assignment [W]. */
    double powerW = 0.0;
    /** Total BIPS of the final assignment. */
    double bips = 0.0;
    /** False when even the all-cheapest assignment busts the
     *  budget (positions/assignment are then untouched). */
    bool feasible = false;
};

/**
 * Heap-driven best-ratio hull upgrades: starting from the hull
 * positions in @p pos (one per core; 0 = cheapest mode), repeatedly
 * apply the globally best remaining BIPS-per-watt hull increment
 * that still fits @p budget_w. A core whose next increment does not
 * fit is dropped (its deeper hull points cost strictly more, and
 * the remaining budget only shrinks). Deterministic: ties in ratio
 * break toward the lower core index. O(increments * log n).
 *
 * @param f        frontiers of the matrix
 * @param budget_w power budget [W]
 * @param pos      in: starting hull position per core;
 *                 out: final positions. Sized f.numCores().
 * @return totals of the final positions; feasible = false iff the
 *         *starting* positions already exceed the budget (pos is
 *         then left unchanged).
 */
GreedyResult greedyUpgradeHeap(const FrontierSet &f, Watts budget_w,
                               std::vector<std::uint8_t> &pos);

/**
 * The MCKP LP-relaxation optimum: every core at its cheapest mode,
 * the leftover budget filled with hull increments in globally
 * decreasing ratio order, the last one fractionally. An upper bound
 * on the BIPS of every budget-feasible integer assignment.
 * Returns baseTotalBips when the budget cannot even cover the
 * all-cheapest assignment (no feasible point; the bound is vacuous
 * and callers should check minTotalPowerW themselves).
 */
double mckpUpperBound(const FrontierSet &f, Watts budget_w);

/** Translate hull positions into a per-core mode assignment. */
std::vector<PowerMode>
assignmentFromPositions(const FrontierSet &f,
                        const std::vector<std::uint8_t> &pos);

/**
 * Per-mode column (SoA) snapshot of a ModeMatrix: power and BIPS of
 * mode m across all cores in one contiguous array each, so
 * column-wise passes (uniform-mode totals, per-mode cost
 * quantization) vectorize instead of striding through the row-major
 * matrix.
 */
struct ModeColumns
{
    std::size_t cores = 0;
    std::size_t modes = 0;
    /** powerW[m * cores + c]; column-contiguous. */
    std::vector<double> powerW;
    /** bips[m * cores + c]; column-contiguous. */
    std::vector<double> bips;

    static ModeColumns fromMatrix(const ModeMatrix &m);

    const double *powerOfMode(PowerMode m) const
    {
        return powerW.data() + static_cast<std::size_t>(m) * cores;
    }

    const double *bipsOfMode(PowerMode m) const
    {
        return bips.data() + static_cast<std::size_t>(m) * cores;
    }

    /** Total chip power with every core at mode @p m [W]. */
    double uniformPowerW(PowerMode m) const;

    /** Total chip BIPS with every core at mode @p m. */
    double uniformBips(PowerMode m) const;
};

} // namespace gpm

#endif // GPM_CORE_MCKP_HH
