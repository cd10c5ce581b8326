#include "static_planner.hh"

#include "core/policies.hh"
#include "util/logging.hh"

namespace gpm
{

std::vector<PowerMode>
planStaticAssignment(
    const std::vector<std::vector<StaticModeStats>> &per_core,
    Watts budget_w, StaticFit fit)
{
    GPM_ASSERT(!per_core.empty());
    std::size_t n_modes = per_core.front().size();
    GPM_ASSERT(n_modes > 0);
    for (const auto &row : per_core)
        GPM_ASSERT(row.size() == n_modes);

    ModeMatrix m(per_core.size(), n_modes);
    for (std::size_t c = 0; c < per_core.size(); c++) {
        for (std::size_t mi = 0; mi < n_modes; mi++) {
            auto mode = static_cast<PowerMode>(mi);
            m.powerW(c, mode) = fit == StaticFit::Peak
                ? per_core[c][mi].peakPowerW
                : per_core[c][mi].avgPowerW;
            m.bips(c, mode) = per_core[c][mi].bips;
        }
    }
    return MaxBipsPolicy::solve(m, budget_w);
}

} // namespace gpm
