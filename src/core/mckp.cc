#include "core/mckp.hh"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/logging.hh"

namespace gpm
{

FrontierSet
buildFrontiers(const ModeMatrix &m)
{
    const std::size_t n = m.numCores();
    const std::size_t k = m.numModes();

    FrontierSet f;
    f.pts.reserve(n * k);
    f.begin.reserve(n + 1);
    f.begin.push_back(0);
    f.minIncPowerW = std::numeric_limits<double>::infinity();

    std::vector<HullPoint> pts(k);
    for (std::size_t c = 0; c < n; c++) {
        for (std::size_t mi = 0; mi < k; mi++) {
            auto mode = static_cast<PowerMode>(mi);
            pts[mi] = {m.powerW(c, mode), m.bips(c, mode), mode};
        }
        // Power-ascending; equal points resolve to the lower mode.
        std::sort(pts.begin(), pts.end(),
                  [](const HullPoint &a, const HullPoint &b) {
                      if (a.powerW != b.powerW)
                          return a.powerW < b.powerW;
                      if (a.bips != b.bips)
                          return a.bips < b.bips;
                      return a.mode < b.mode;
                  });
        const std::size_t base = f.pts.size();
        auto hull = [&](std::size_t i) -> HullPoint & {
            return f.pts[base + i];
        };
        std::size_t sz = 0;
        for (const HullPoint &pt : pts) {
            if (sz > 0 && pt.bips <= hull(sz - 1).bips)
                continue; // dominated: dearer, no more BIPS
            // Same power, more BIPS: the previous point is dominated.
            while (sz > 0 && pt.powerW <= hull(sz - 1).powerW)
                sz--;
            while (sz >= 2) {
                // Keep marginal ratios decreasing.
                const HullPoint &a = hull(sz - 2);
                const HullPoint &b = hull(sz - 1);
                double r1 = (b.bips - a.bips) /
                    std::max(b.powerW - a.powerW, 1e-12);
                double r2 = (pt.bips - b.bips) /
                    std::max(pt.powerW - b.powerW, 1e-12);
                if (r2 >= r1)
                    sz--;
                else
                    break;
            }
            f.pts.resize(base + sz);
            f.pts.push_back(pt);
            sz++;
        }
        f.minTotalPowerW += hull(0).powerW;
        f.baseTotalBips += hull(0).bips;
        for (std::size_t h = 1; h < sz; h++)
            f.minIncPowerW = std::min(
                f.minIncPowerW, hull(h).powerW - hull(h - 1).powerW);
        f.begin.push_back(static_cast<std::uint32_t>(f.pts.size()));
    }
    return f;
}

namespace
{

/** One pending hull upgrade of a core, heap-ordered by ratio. */
struct HeapInc
{
    double dp = 0.0;
    double db = 0.0;
    std::uint32_t core = 0;
};

/** priority_queue "less": true when a ranks below b. Higher
 *  BIPS-per-watt first; ties break toward the lower core index. */
struct HeapIncLess
{
    bool
    operator()(const HeapInc &a, const HeapInc &b) const
    {
        double lhs = a.db * b.dp;
        double rhs = b.db * a.dp;
        if (lhs != rhs)
            return lhs < rhs;
        return a.core > b.core;
    }
};

} // namespace

GreedyResult
greedyUpgradeHeap(const FrontierSet &f, Watts budget_w,
                  std::vector<std::uint8_t> &pos)
{
    const std::size_t n = f.numCores();
    GPM_ASSERT(pos.size() == n);

    GreedyResult r;
    for (std::size_t c = 0; c < n; c++) {
        const HullPoint &p = f.at(c, pos[c]);
        r.powerW += p.powerW;
        r.bips += p.bips;
    }
    if (r.powerW > budget_w)
        return r; // infeasible start; positions untouched
    r.feasible = true;

    std::vector<HeapInc> seed;
    seed.reserve(n);
    for (std::size_t c = 0; c < n; c++) {
        if (pos[c] + 1u < f.sizeOf(c)) {
            const HullPoint &a = f.at(c, pos[c]);
            const HullPoint &b = f.at(c, pos[c] + 1);
            seed.push_back({b.powerW - a.powerW, b.bips - a.bips,
                            static_cast<std::uint32_t>(c)});
        }
    }
    std::priority_queue<HeapInc, std::vector<HeapInc>, HeapIncLess>
        heap(HeapIncLess{}, std::move(seed));

    while (!heap.empty()) {
        // No remaining increment is cheaper than the global minimum,
        // so once that cannot fit, nothing can: stop instead of
        // popping the whole heap through doomed candidates. (Key for
        // DP slack repair, whose leftover budget is near zero.)
        if (budget_w - r.powerW < f.minIncPowerW)
            break;
        HeapInc inc = heap.top();
        heap.pop();
        // Cumulative hull cost only grows along a core's frontier,
        // so a core whose next step busts the budget is done.
        if (r.powerW + inc.dp > budget_w)
            continue;
        r.powerW += inc.dp;
        r.bips += inc.db;
        std::size_t c = inc.core;
        pos[c]++;
        if (pos[c] + 1u < f.sizeOf(c)) {
            const HullPoint &a = f.at(c, pos[c]);
            const HullPoint &b = f.at(c, pos[c] + 1);
            heap.push({b.powerW - a.powerW, b.bips - a.bips,
                       inc.core});
        }
    }
    return r;
}

double
mckpUpperBound(const FrontierSet &f, Watts budget_w)
{
    const std::size_t n = f.numCores();
    double slack = budget_w - f.minTotalPowerW;
    double bound = f.baseTotalBips;
    if (slack <= 0.0)
        return bound;

    struct Inc
    {
        double dp, db;
    };
    std::vector<Inc> incs;
    incs.reserve(f.pts.size());
    for (std::size_t c = 0; c < n; c++)
        for (std::size_t h = 1; h < f.sizeOf(c); h++)
            incs.push_back({f.at(c, h).powerW - f.at(c, h - 1).powerW,
                            f.at(c, h).bips - f.at(c, h - 1).bips});
    std::sort(incs.begin(), incs.end(),
              [](const Inc &a, const Inc &b) {
                  return a.db * b.dp > b.db * a.dp;
              });
    for (const Inc &inc : incs) {
        if (slack <= 0.0)
            break;
        if (inc.dp <= slack) {
            bound += inc.db;
            slack -= inc.dp;
        } else {
            bound += inc.db * slack / std::max(inc.dp, 1e-12);
            slack = 0.0;
        }
    }
    return bound;
}

std::vector<PowerMode>
assignmentFromPositions(const FrontierSet &f,
                        const std::vector<std::uint8_t> &pos)
{
    const std::size_t n = f.numCores();
    GPM_ASSERT(pos.size() == n);
    std::vector<PowerMode> out(n);
    for (std::size_t c = 0; c < n; c++)
        out[c] = f.at(c, pos[c]).mode;
    return out;
}

} // namespace gpm
