/**
 * @file
 * Shared types of the global power-management layer: per-core sensor
 * samples and the Power/BIPS matrices of paper Section 5.5.
 */

#ifndef GPM_CORE_TYPES_HH
#define GPM_CORE_TYPES_HH

#include <cstdint>
#include <vector>

#include "power/dvfs.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace gpm
{

/**
 * What the local (per-core) monitors report to the global manager at
 * each explore time: average power from the current sensor, BIPS from
 * the performance counters, the mode the core ran in, and an L2-miss
 * intensity used by policies that prefer memory-bound tasks.
 */
struct CoreSample
{
    /** Average core power over the last explore interval [W]. */
    Watts powerW = 0.0;
    /** Average throughput over the last interval [BIPS]. */
    double bips = 0.0;
    /** Mode the core ran in during the interval. */
    PowerMode mode = modes::Turbo;
    /** L2 misses per microsecond (memory-boundedness signal). */
    double memIntensity = 0.0;
    /** False once the core's workload has completed. */
    bool active = true;
};

/**
 * Power and BIPS matrices: for each core and each candidate mode, the
 * predicted (or, for the oracle, exact future) average power and
 * BIPS over the next explore interval. Row-major, cores x modes.
 */
class ModeMatrix
{
  public:
    /** Create a cores x modes matrix of zeros. */
    ModeMatrix(std::size_t cores, std::size_t modes);

    /** Number of cores (rows). */
    std::size_t numCores() const { return nCores; }

    /** Number of modes (columns). */
    std::size_t numModes() const { return nModes; }

    /** Predicted power of core @p c at mode @p m [W]. */
    Watts &powerW(std::size_t c, PowerMode m)
    {
        return power[index(c, m)];
    }
    Watts powerW(std::size_t c, PowerMode m) const
    {
        return power[index(c, m)];
    }

    /** Predicted BIPS of core @p c at mode @p m. */
    double &bips(std::size_t c, PowerMode m)
    {
        return perf[index(c, m)];
    }
    double bips(std::size_t c, PowerMode m) const
    {
        return perf[index(c, m)];
    }

    /**
     * Contiguous row of core @p c's predicted powers, one entry per
     * mode — the matrix is row-major, so per-core kernels (DP inner
     * loops, frontier builds) can stream a core's modes without the
     * per-element bounds-checked accessor.
     */
    const double *powerRow(std::size_t c) const;

    /** Contiguous row of core @p c's predicted BIPS (see powerRow). */
    const double *bipsRow(std::size_t c) const;

    /** Total power of an assignment (one mode per core) [W]. */
    Watts totalPowerW(const std::vector<PowerMode> &assign) const;

    /** Total BIPS of an assignment. */
    double totalBips(const std::vector<PowerMode> &assign) const;

  private:
    std::size_t index(std::size_t c, PowerMode m) const
    {
        GPM_ASSERT(c < nCores && m < nModes);
        return c * nModes + m;
    }

    std::size_t nCores;
    std::size_t nModes;
    std::vector<double> power;
    std::vector<double> perf;
};

} // namespace gpm

#endif // GPM_CORE_TYPES_HH
