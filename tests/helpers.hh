/**
 * @file
 * Shared test fixtures: scripted micro-op sources, hand-built
 * workload profiles, random ModeMatrix generators, the exhaustive
 * reference the exact MaxBIPS / MinPower search must reproduce, and
 * the chunk-at-a-time cursor the ProfileCursor step must reproduce.
 */

#ifndef GPM_TESTS_HELPERS_HH
#define GPM_TESTS_HELPERS_HH

#include <algorithm>
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

/**
 * The replay ProfileCursor must reproduce bit for bit: the
 * chunk-at-a-time loop that re-tests the pass boundary, re-selects
 * and converts the chunk's instruction count and multiplies by the
 * dilation for every chunk it touches. seekFraction(), advance(),
 * peek(), finished(), instructionsDone() and progress() behave as
 * ProfileCursor's, over this object's own position.
 */
class ReferenceCursor
{
  public:
    using Delta = ProfileCursor::Delta;

    explicit ReferenceCursor(const WorkloadProfile &profile)
        : prof(profile)
    {
    }

    void
    seekFraction(double f)
    {
        const ModeProfile &mp = prof.modes[0];
        start = Pos{};
        shifted = false;
        if (f > 0.0 && !mp.chunks.empty()) {
            double target =
                f * static_cast<double>(mp.totalInsts());
            auto chunk = static_cast<std::size_t>(
                target / static_cast<double>(mp.chunkInsts));
            chunk = std::min(chunk, mp.chunks.size() - 1);
            std::uint64_t this_chunk = chunk + 1 == mp.chunks.size()
                ? mp.lastChunkInsts
                : mp.chunkInsts;
            double frac = (target -
                           static_cast<double>(chunk) *
                               static_cast<double>(mp.chunkInsts)) /
                static_cast<double>(this_chunk);
            start.chunk = chunk;
            start.frac = std::clamp(frac, 0.0, 1.0);
            shifted = true;
        }
        cur = start;
        instsAcc = 0.0;
    }

    Delta
    advance(MicroSec dt_us, PowerMode m, double dilation = 1.0)
    {
        Delta d = advanceFrom(cur, dt_us, m, dilation);
        instsAcc += d.instructions;
        return d;
    }

    Delta
    peek(MicroSec dt_us, PowerMode m, double dilation = 1.0) const
    {
        Pos tmp = cur;
        return advanceFrom(tmp, dt_us, m, dilation);
    }

    bool
    finished() const
    {
        return posFinished(cur, prof.modes[0].chunks.size());
    }

    double
    instructionsDone() const
    {
        const ModeProfile &mp = prof.modes[0];
        if (shifted)
            return std::min(instsAcc,
                            static_cast<double>(mp.totalInsts()));
        if (finished())
            return static_cast<double>(mp.totalInsts());
        double insts =
            static_cast<double>(cur.chunk) *
            static_cast<double>(mp.chunkInsts);
        std::uint64_t this_chunk = cur.chunk + 1 == mp.chunks.size()
            ? mp.lastChunkInsts
            : mp.chunkInsts;
        return insts + cur.frac * static_cast<double>(this_chunk);
    }

    double
    progress() const
    {
        double total =
            static_cast<double>(prof.modes[0].totalInsts());
        if (total <= 0.0)
            return 1.0;
        return instructionsDone() / total;
    }

  private:
    struct Pos
    {
        std::size_t chunk = 0;
        double frac = 0.0;
        bool wrapped = false;
    };

    bool
    posFinished(const Pos &pos, std::size_t n_chunks) const
    {
        if (!shifted)
            return pos.chunk >= n_chunks;
        return pos.wrapped &&
            (pos.chunk > start.chunk ||
             (pos.chunk == start.chunk && pos.frac >= start.frac));
    }

    Delta
    advanceFrom(Pos &pos, MicroSec dt_us, PowerMode m,
                double dilation) const
    {
        const ModeProfile &mp = prof.modes[m];
        Delta d;
        double remaining_ps = dt_us * 1e6;

        while (remaining_ps > 0.0 &&
               !posFinished(pos, mp.chunks.size())) {
            const ChunkRecord &c = mp.chunks[pos.chunk];
            std::uint64_t this_chunk_insts =
                pos.chunk + 1 == mp.chunks.size() ? mp.lastChunkInsts
                                                  : mp.chunkInsts;
            double end_frac =
                shifted && pos.wrapped && pos.chunk == start.chunk
                ? start.frac
                : 1.0;
            double chunk_ps =
                static_cast<double>(c.timePs) * dilation;
            double rem_frac = end_frac - pos.frac;
            double rem_ps = chunk_ps * rem_frac;

            if (rem_ps <= remaining_ps) {
                d.instructions +=
                    rem_frac * static_cast<double>(this_chunk_insts);
                d.energyJ += rem_frac * c.energyJ;
                d.l2Accesses +=
                    rem_frac * static_cast<double>(c.l2Accesses);
                d.l2Misses +=
                    rem_frac * static_cast<double>(c.l2Misses);
                remaining_ps -= rem_ps;
                if (end_frac < 1.0) {
                    pos.frac = end_frac;
                } else {
                    pos.chunk++;
                    pos.frac = 0.0;
                    if (shifted && !pos.wrapped &&
                        pos.chunk >= mp.chunks.size()) {
                        pos.chunk = 0;
                        pos.wrapped = true;
                    }
                }
            } else {
                double f = remaining_ps / chunk_ps;
                d.instructions +=
                    f * static_cast<double>(this_chunk_insts);
                d.energyJ += f * c.energyJ;
                d.l2Accesses +=
                    f * static_cast<double>(c.l2Accesses);
                d.l2Misses += f * static_cast<double>(c.l2Misses);
                pos.frac += f;
                remaining_ps = 0.0;
            }
        }

        d.usedUs = dt_us - remaining_ps * 1e-6;
        d.finished = posFinished(pos, mp.chunks.size());
        return d;
    }

    const WorkloadProfile &prof;
    Pos cur;
    Pos start;
    bool shifted = false;
    double instsAcc = 0.0;
};

} // namespace gpm::test

#endif // GPM_TESTS_HELPERS_HH
