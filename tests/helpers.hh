/**
 * @file
 * Shared test fixtures: scripted micro-op sources, hand-built
 * workload profiles, random ModeMatrix generators, and the
 * exhaustive reference the exact MaxBIPS / MinPower search must
 * reproduce.
 */

#ifndef GPM_TESTS_HELPERS_HH
#define GPM_TESTS_HELPERS_HH

#include <vector>

#include "core/types.hh"
#include "trace/phase_profile.hh"
#include "uarch/isa.hh"
#include "util/rng.hh"

namespace gpm::test
{

/** OpSource that replays a fixed vector of micro-ops. */
class ScriptedSource : public OpSource
{
  public:
    explicit ScriptedSource(std::vector<MicroOp> ops)
        : ops(std::move(ops))
    {
    }

    bool
    next(MicroOp &op) override
    {
        if (pos >= ops.size())
            return false;
        op = ops[pos++];
        return true;
    }

  private:
    std::vector<MicroOp> ops;
    std::size_t pos = 0;
};

/** n copies of the same op (pc advances). */
inline std::vector<MicroOp>
repeatOp(OpClass cls, std::size_t n, std::uint8_t dep_a = 0,
         std::uint64_t addr_stride = 0)
{
    std::vector<MicroOp> ops(n);
    for (std::size_t i = 0; i < n; i++) {
        ops[i].cls = cls;
        ops[i].pc = 0x1000 + 4 * i;
        ops[i].depA = dep_a;
        ops[i].addr = addr_stride * i;
    }
    return ops;
}

/**
 * Hand-built WorkloadProfile: `chunks` chunks of `chunk_insts`
 * instructions each. Mode m runs a chunk in base_us * slowdown[m]
 * microseconds consuming base_j * pscale[m] joules.
 */
inline WorkloadProfile
syntheticProfile(std::size_t chunks, std::uint64_t chunk_insts,
                 double base_us, double base_j,
                 const std::vector<double> &slowdown,
                 const std::vector<double> &pscale,
                 std::uint32_t l2_misses_per_chunk = 0)
{
    WorkloadProfile p;
    p.name = "synthetic";
    for (std::size_t m = 0; m < slowdown.size(); m++) {
        ModeProfile mp;
        mp.chunkInsts = chunk_insts;
        mp.lastChunkInsts = chunk_insts;
        for (std::size_t c = 0; c < chunks; c++) {
            ChunkRecord r;
            r.timePs = static_cast<std::uint64_t>(
                base_us * slowdown[m] * 1e6);
            r.energyJ = base_j * pscale[m];
            r.l2Misses = l2_misses_per_chunk;
            r.l2Accesses = l2_misses_per_chunk * 2;
            mp.chunks.push_back(r);
        }
        p.modes.push_back(std::move(mp));
    }
    return p;
}

/** Classic-3-mode synthetic profile with cubic power behaviour. */
inline WorkloadProfile
classicSyntheticProfile(std::size_t chunks = 100,
                        double base_us = 10.0, double base_j = 1e-4)
{
    return syntheticProfile(chunks, 10'000, base_us, base_j,
                            {1.0, 1.0 / 0.95, 1.0 / 0.85},
                            {1.0, 0.857375, 0.614125});
}

/** Random ModeMatrix: powers descend with mode, bips descend too. */
inline ModeMatrix
randomMatrix(std::size_t cores, std::size_t n_modes,
             std::uint64_t seed)
{
    Rng rng(seed);
    ModeMatrix m(cores, n_modes);
    for (std::size_t c = 0; c < cores; c++) {
        double p = rng.uniform(5.0, 12.0);
        double b = rng.uniform(0.2, 2.5);
        for (std::size_t mi = 0; mi < n_modes; mi++) {
            double s = 1.0 -
                0.15 * static_cast<double>(mi) *
                    rng.uniform(0.8, 1.2);
            auto mode = static_cast<PowerMode>(mi);
            m.powerW(c, mode) = p * s * s * s;
            m.bips(c, mode) = b * s;
        }
    }
    return m;
}

/**
 * Tie-heavy random ModeMatrix: values quantized to a coarse grid
 * (dyadic steps, whose sums are exact, or steps of 0.1, whose sums
 * round differently in different orders), rows that duplicate an
 * earlier core, and modes that share an earlier mode's power. Mode
 * values are not monotone in the mode index.
 */
inline ModeMatrix
tieHeavyMatrix(std::size_t cores, std::size_t n_modes,
               std::uint64_t seed)
{
    Rng rng(seed);
    const double step_p = rng.below(2) ? 0.5 : 0.1;
    const double step_b = rng.below(2) ? 0.25 : 0.1;
    ModeMatrix m(cores, n_modes);
    for (std::size_t c = 0; c < cores; c++) {
        const bool twin = c > 0 && rng.below(3) == 0;
        const std::size_t of =
            twin ? rng.below(static_cast<std::uint32_t>(c)) : 0;
        for (std::size_t mi = 0; mi < n_modes; mi++) {
            auto mode = static_cast<PowerMode>(mi);
            if (twin) {
                m.powerW(c, mode) = m.powerW(of, mode);
                m.bips(c, mode) = m.bips(of, mode);
                continue;
            }
            m.powerW(c, mode) = mi > 0 && rng.below(4) == 0
                ? m.powerW(c, static_cast<PowerMode>(mi - 1))
                : step_p * (1 + rng.below(20));
            m.bips(c, mode) = step_b * rng.below(12);
        }
    }
    return m;
}

/** A uniformly random assignment (one mode per core). */
inline std::vector<PowerMode>
randomAssignment(const ModeMatrix &m, Rng &rng)
{
    std::vector<PowerMode> a(m.numCores());
    for (auto &mode : a)
        mode = static_cast<PowerMode>(
            rng.below(static_cast<std::uint32_t>(m.numModes())));
    return a;
}

/** The objectives of the exact search (see bruteForce). */
enum class Objective
{
    MaxBips,  ///< most BIPS with total power <= limit
    MinPower, ///< least power with total BIPS + 1e-12 >= limit
};

/**
 * The exhaustive enumeration the exact search must reproduce
 * assignment for assignment: every modes^cores assignment in
 * odometer order (core 0 turning fastest), keeping one only when it
 * is strictly better than the best so far — for MaxBips more total
 * BIPS, then less power; for MinPower less total power, then more
 * BIPS — so exact ties go to the first in that order. Falls back to
 * all-slowest (MaxBips) or all-Turbo (MinPower) when no assignment
 * meets @p limit.
 */
inline std::vector<PowerMode>
bruteForce(const ModeMatrix &m, double limit, Objective obj)
{
    const std::size_t n = m.numCores();
    const std::size_t k = m.numModes();
    const bool max_bips = obj == Objective::MaxBips;
    std::vector<PowerMode> cur(n, 0), best;
    double best_p = 0.0, best_b = 0.0;
    for (;;) {
        double p = m.totalPowerW(cur);
        double b = m.totalBips(cur);
        bool fits = max_bips ? p <= limit : b + 1e-12 >= limit;
        bool better = max_bips
            ? b > best_b || (b == best_b && p < best_p)
            : p < best_p || (p == best_p && b > best_b);
        if (fits && (best.empty() || better)) {
            best = cur;
            best_p = p;
            best_b = b;
        }
        std::size_t c = 0;
        while (c < n && ++cur[c] == k)
            cur[c++] = 0;
        if (c == n)
            break;
    }
    if (best.empty())
        best.assign(n, max_bips ? static_cast<PowerMode>(k - 1)
                                : modes::Turbo);
    return best;
}

} // namespace gpm::test

#endif // GPM_TESTS_HELPERS_HH
