#include "cluster/cluster.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "core/policies.hh"
#include "util/logging.hh"

namespace gpm
{

std::size_t
ClusterSpec::totalCores() const
{
    std::size_t n = 0;
    for (const auto &chip : chips)
        n += chip.combo.size();
    return n;
}

ChipFrontier
collapseChipFrontier(const ModeMatrix &m)
{
    FrontierSet f = buildFrontiers(m);
    const std::size_t n = f.numCores();

    // Merge every core's hull increments by BIPS-per-watt ratio,
    // ties toward the lower core index — the same discipline as
    // greedyUpgradeHeap, so a frontier prefix and a greedy fill at
    // that prefix's budget pick identical assignments. Within a
    // core the hull keeps marginal ratios strictly decreasing, so
    // the k-way heap merge greedyUpgradeHeap performs is exactly a
    // global sort by (ratio desc, core asc, hull position asc) —
    // one cache-friendly sort instead of 4n heap operations.
    struct Inc
    {
        double ratio;
        double dPowerW;
        double dBips;
        std::uint32_t core;
        std::uint32_t pos; ///< hull position the increment reaches
    };
    std::vector<Inc> incs;
    incs.reserve(f.pts.size() - n);
    for (std::uint32_t c = 0; c < n; c++) {
        const std::size_t sz = f.sizeOf(c);
        for (std::uint32_t h = 1; h < sz; h++) {
            double dp = f.at(c, h).powerW - f.at(c, h - 1).powerW;
            double db = f.at(c, h).bips - f.at(c, h - 1).bips;
            incs.push_back({db / dp, dp, db, c, h});
        }
    }
    std::sort(incs.begin(), incs.end(),
              [](const Inc &a, const Inc &b) {
                  if (a.ratio != b.ratio)
                      return a.ratio > b.ratio;
                  if (a.core != b.core)
                      return a.core < b.core;
                  return a.pos < b.pos;
              });

    ChipFrontier out;
    out.pts.reserve(incs.size() + 1);
    double power = f.minTotalPowerW;
    double bips = f.baseTotalBips;
    out.pts.push_back({power, bips, 0});
    for (const Inc &inc : incs) {
        power += inc.dPowerW;
        bips += inc.dBips;
        out.pts.push_back({power, bips, 0});
    }
    return out;
}

ChipFrontier
quantizeFrontier(const ChipFrontier &f, unsigned levels)
{
    GPM_ASSERT(levels >= 2);
    GPM_ASSERT(!f.pts.empty());
    const std::size_t n = f.pts.size();
    if (n <= levels)
        return f;
    ChipFrontier out;
    out.pts.reserve(levels);
    // Index-spaced sampling keeps both endpoints; with n > levels
    // the stride exceeds 1, so the rounded indices are distinct.
    for (unsigned j = 0; j < levels; j++) {
        auto idx = static_cast<std::size_t>(std::llround(
            static_cast<double>(j) * static_cast<double>(n - 1) /
            static_cast<double>(levels - 1)));
        out.pts.push_back(f.pts[idx]);
    }
    return out;
}

namespace
{

/** Dispatch a facility-level solve to the named policy kernel. */
std::vector<PowerMode>
solveClusterLevel(const std::string &policy, const ModeMatrix &m,
                  Watts budget_w)
{
    if (policy == "MaxBIPS")
        return MaxBipsPolicy::solve(m, budget_w);
    if (policy.rfind("MaxBIPS-DP", 0) == 0) {
        const std::string suffix = policy.substr(10);
        unsigned grid = MaxBipsDpPolicy::defaultGrid;
        if (!suffix.empty())
            grid = static_cast<unsigned>(
                std::strtoul(suffix.c_str(), nullptr, 10));
        return MaxBipsDpPolicy::solve(m, budget_w, grid);
    }
    if (policy == "WaterFill")
        return WaterFillPolicy::solve(m, budget_w);
    if (policy == "GreedyTurbo")
        return GreedyTurboPolicy::solve(m, budget_w);
    fatal("'%s' is not a cluster arbitration policy",
          policy.c_str());
}

} // namespace

bool
isClusterPolicyName(const std::string &name)
{
    if (name == "MaxBIPS" || name == "WaterFill" ||
        name == "GreedyTurbo")
        return true;
    // "MaxBIPS-DP" with an optional grid suffix; reuse the policy
    // factory's name validation for the suffix shape.
    return name.rfind("MaxBIPS-DP", 0) == 0 && isPolicyName(name);
}

ClusterAllocation
allocateFacilityBudget(const std::vector<ChipFrontier> &chips,
                       Watts facility_w, const std::string &policy)
{
    const std::size_t m = chips.size();
    GPM_ASSERT(m > 0);
    std::size_t k = 0;
    Watts floor_w = 0.0;
    for (const auto &c : chips) {
        GPM_ASSERT(!c.pts.empty());
        k = std::max(k, c.pts.size());
        floor_w += c.floorPowerW();
    }

    ClusterAllocation out;
    out.awardsW.resize(m);
    out.feasible = floor_w <= facility_w;
    if (!out.feasible) {
        // The cluster-level all-slowest contract: every chip at its
        // floor. The inner managers will make the same fallback
        // when the floor award cannot cover their cheapest modes.
        for (std::size_t i = 0; i < m; i++) {
            out.awardsW[i] = chips[i].floorPowerW();
            out.predictedBips += chips[i].pts.front().bips;
        }
        out.selectedPowerW = floor_w;
        return out;
    }

    // Row i = chip i's frontier, fastest first; pad short frontiers
    // with their floor so mode k-1 is always the floor and the
    // kernels' all-slowest fallback stays "every chip at its
    // floor".
    ModeMatrix mat(m, k);
    for (std::size_t i = 0; i < m; i++) {
        const auto &pts = chips[i].pts;
        const std::size_t f = pts.size();
        for (std::size_t j = 0; j < k; j++) {
            const HullPoint &p = j < f ? pts[f - 1 - j] : pts[0];
            mat.powerW(i, static_cast<PowerMode>(j)) = p.powerW;
            mat.bips(i, static_cast<PowerMode>(j)) = p.bips;
        }
    }

    std::vector<PowerMode> pick =
        solveClusterLevel(policy, mat, facility_w);
    for (std::size_t i = 0; i < m; i++) {
        out.awardsW[i] = mat.powerW(i, pick[i]);
        out.predictedBips += mat.bips(i, pick[i]);
        out.selectedPowerW += mat.powerW(i, pick[i]);
    }

    // Spread the leftover slack evenly: the quantized frontier
    // rarely lands exactly on the budget, and an inner manager
    // given a few extra watts simply uses (or caps) them. The
    // renormalization guards the <= contract against fp rounding
    // in the redistribution sums.
    double slack = facility_w - out.selectedPowerW;
    if (slack > 0.0) {
        const double share = slack / static_cast<double>(m);
        double total = 0.0;
        for (std::size_t i = 0; i < m; i++) {
            out.awardsW[i] += share;
            total += out.awardsW[i];
        }
        if (total > facility_w) {
            const double scale = facility_w / total;
            for (std::size_t i = 0; i < m; i++)
                out.awardsW[i] *= scale;
        }
    }
    return out;
}

} // namespace gpm
