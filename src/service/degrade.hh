/**
 * @file
 * The policy degradation ladder — the serving-time embodiment of
 * the paper's quality/cost result: exact MaxBIPS is the best answer
 * but the approximate kernels trail it by fractions of a percent at
 * a fraction of the cost (MaxBIPS-DP gap ~0% at ~270 us vs
 * WaterFill at ~80 us for 1024 cores). When the daemon is
 * overloaded, or a request's deadline cannot survive the exact
 * solver, the service transparently steps the solver DOWN the
 * ladder instead of rejecting or blowing the deadline:
 *
 *     MaxBIPS                (exact search, exponential worst case)
 *        │
 *        ▼
 *     MaxBIPS-DP<G>          (MCKP DP, ~exact, microseconds)
 *        │
 *        ▼
 *     GreedyTurbo            (heap-driven upgrades, cheaper)
 *        │
 *        ▼
 *     WaterFill              (water-filling, cheapest)
 *
 * Every rung is a valid policy for both flat sweeps and cluster
 * facility arbitration, so one ladder serves both request shapes.
 * Policies off the ladder (Priority, Static, Oracle, the MinPower
 * family, ...) are never degraded — there is no cheaper solver
 * with the same meaning.
 *
 * A degraded response is exactly what a direct submission of the
 * degraded scenario would return (bitwise — same serializer, same
 * canonical echo), is labeled with {from, to, reason}, and is
 * cached only under the DEGRADED scenario's hash, never the
 * original's: the cache tier stays bitwise-truthful per hash.
 */

#ifndef GPM_SERVICE_DEGRADE_HH
#define GPM_SERVICE_DEGRADE_HH

#include <optional>
#include <string>

namespace gpm::degrade
{

/** True when @p policy sits on the ladder (including its bottom
 *  rung, which has nowhere further to go). */
bool onLadder(const std::string &policy);

/**
 * The next rung down from @p policy, or nullopt when @p policy is
 * off the ladder or already the bottom rung. "MaxBIPS-DP<G>"
 * matches the DP rung for any grid G.
 */
std::optional<std::string> nextRung(const std::string &policy);

/** Ladder position of @p policy: 0 = top (exact family), larger =
 *  cheaper; nullopt when off the ladder. */
std::optional<int> rungIndex(const std::string &policy);

} // namespace gpm::degrade

#endif // GPM_SERVICE_DEGRADE_HH
