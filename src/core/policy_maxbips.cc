#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/mckp.hh"
#include "core/policies.hh"
#include "util/logging.hh"

namespace gpm
{

namespace
{

/**
 * The one exact search behind MaxBIPS and MinPower: among the
 * assignments whose total power p satisfies p - slack <= cap, the
 * one with the most total BIPS, then the least power, then the
 * first in odometer order (core 0 the fastest-turning digit). That
 * is exactly what enumerating all modes^cores assignments in that
 * order and keeping strict improvements returns.
 *
 * Depth-first, fixing core n-1 first and trying modes in ascending
 * order, so leaves are visited in the enumeration's own order. Each
 * leaf is scored with ModeMatrix::totalPowerW / totalBips (the
 * enumeration's arithmetic) and kept only if strictly better. A
 * subtree is cut when even its cheapest completion busts the cap,
 * or when the MCKP LP relaxation of its free cores (their
 * buildFrontiers hulls filled by decreasing BIPS-per-watt, the last
 * increment fractionally) stays below the best BIPS known. Both
 * tests are widened by 1e-9 of the problem's magnitude, so
 * summation-order rounding can never cut the exact winner. The
 * greedyUpgradeHeap fill seeds the cut value, never the answer, and
 * only once it passes the same leaf test.
 */
class ExactSearch
{
  public:
    ExactSearch(const ModeMatrix &m, double cap, double slack)
        : m(m), cap(cap), slack(slack), n(m.numCores()),
          k(m.numModes()), cur(n, 0), preMinPower(n + 1, 0.0),
          preBaseBips(n + 1, 0.0), preIncs(n + 1)
    {
        const FrontierSet f = buildFrontiers(m);
        double scale_p = std::abs(cap) + slack, scale_b = 0.0;
        for (std::size_t c = 0; c < n; c++) {
            preMinPower[c + 1] = preMinPower[c] + f.at(c, 0).powerW;
            preBaseBips[c + 1] = preBaseBips[c] + f.at(c, 0).bips;
            // Ratio-descending hull increments of cores 0..c.
            preIncs[c + 1] = preIncs[c];
            for (std::size_t h = 1; h < f.sizeOf(c); h++)
                preIncs[c + 1].push_back(
                    {f.at(c, h).powerW - f.at(c, h - 1).powerW,
                     f.at(c, h).bips - f.at(c, h - 1).bips});
            std::sort(preIncs[c + 1].begin(), preIncs[c + 1].end(),
                      [](const Increment &a, const Increment &b) {
                          return a.db * b.dp > b.db * a.dp;
                      });
            double max_p = 0.0, max_b = 0.0;
            for (std::size_t mi = 0; mi < k; mi++) {
                max_p = std::max(max_p, std::abs(m.powerRow(c)[mi]));
                max_b = std::max(max_b, std::abs(m.bipsRow(c)[mi]));
            }
            scale_p += max_p;
            scale_b += max_b;
        }
        tolP = 1e-9 * scale_p;
        tolB = 1e-9 * scale_b;

        std::vector<std::uint8_t> pos(n, 0);
        greedyUpgradeHeap(f, cap + slack, pos);
        std::vector<PowerMode> seed = assignmentFromPositions(f, pos);
        if (m.totalPowerW(seed) - slack <= cap)
            cutBips = m.totalBips(seed);
    }

    /** The exact winner; empty when no assignment is feasible. */
    std::vector<PowerMode>
    run()
    {
        dfs(n, 0.0, 0.0);
        return best;
    }

  private:
    /** One hull upgrade step of a core. */
    struct Increment
    {
        double dp;
        double db;
    };

    /** Cores [0, c) are free; @p power / @p bips sum the rest. */
    void
    dfs(std::size_t c, double power, double bips)
    {
        // Budget the free cores have beyond their cheapest modes.
        double room = cap + slack - power - preMinPower[c] + tolP;
        if (room < 0.0)
            return;
        double bound = bips + preBaseBips[c];
        for (const Increment &inc : preIncs[c]) {
            if (inc.dp <= room) {
                bound += inc.db;
                room -= inc.dp;
            } else {
                bound += inc.db * room / inc.dp;
                break;
            }
        }
        if (bound + tolB < cutBips)
            return;
        if (c == 0) {
            score();
            return;
        }
        const std::size_t core = c - 1;
        const double *pw = m.powerRow(core);
        const double *bp = m.bipsRow(core);
        for (std::size_t mi = 0; mi < k; mi++) {
            cur[core] = static_cast<PowerMode>(mi);
            dfs(core, power + pw[mi], bips + bp[mi]);
        }
    }

    /** The enumeration's leaf test on the complete assignment. */
    void
    score()
    {
        const double p = m.totalPowerW(cur);
        if (!(p - slack <= cap))
            return;
        const double b = m.totalBips(cur);
        if (best.empty() || b > bestBips ||
            (b == bestBips && p < bestPower)) {
            best = cur;
            bestBips = b;
            bestPower = p;
            cutBips = std::max(cutBips, b);
        }
    }

    const ModeMatrix &m;
    const double cap;
    const double slack;
    const std::size_t n;
    const std::size_t k;
    std::vector<PowerMode> cur;
    std::vector<PowerMode> best;
    /** Cheapest-mode power / BIPS summed over cores [0, c). */
    std::vector<double> preMinPower;
    std::vector<double> preBaseBips;
    /** Ratio-descending hull increments of cores [0, c). */
    std::vector<std::vector<Increment>> preIncs;
    double tolP = 0.0;
    double tolB = 0.0;
    double cutBips = -std::numeric_limits<double>::infinity();
    double bestBips = 0.0;
    double bestPower = 0.0;
};

} // namespace

std::vector<PowerMode>
MaxBipsPolicy::solve(const ModeMatrix &m, Watts budget_w)
{
    std::vector<PowerMode> best = ExactSearch(m, budget_w, 0.0).run();
    if (best.empty()) // nothing fits: all-slowest
        best.assign(m.numCores(),
                    static_cast<PowerMode>(m.numModes() - 1));
    return best;
}

std::vector<PowerMode>
MaxBipsPolicy::solveMinPower(const ModeMatrix &m, double target_bips)
{
    // The same search with objective and constraint swapped: on the
    // negated matrix, "most -power with -BIPS - 1e-12 <= -target" is
    // "least power with BIPS + 1e-12 >= target", ties to more BIPS.
    // IEEE negation is exact, so every total and comparison is
    // bit-for-bit the enumeration's.
    const std::size_t n = m.numCores();
    ModeMatrix neg(n, m.numModes());
    for (std::size_t c = 0; c < n; c++)
        for (std::size_t mi = 0; mi < m.numModes(); mi++) {
            auto mode = static_cast<PowerMode>(mi);
            neg.powerW(c, mode) = -m.bips(c, mode);
            neg.bips(c, mode) = -m.powerW(c, mode);
        }
    std::vector<PowerMode> best =
        ExactSearch(neg, -target_bips, 1e-12).run();
    if (best.empty()) // unreachable target: all-Turbo best effort
        best.assign(n, modes::Turbo);
    return best;
}

std::vector<PowerMode>
MaxBipsPolicy::decide(const PolicyInput &in)
{
    GPM_ASSERT(in.predicted != nullptr);
    return solve(*in.predicted, in.budgetW);
}

std::vector<PowerMode>
OraclePolicy::decide(const PolicyInput &in)
{
    GPM_ASSERT(in.oracle != nullptr);
    return MaxBipsPolicy::solve(*in.oracle, in.budgetW);
}

} // namespace gpm
