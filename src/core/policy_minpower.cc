#include <vector>

#include "core/policies.hh"
#include "util/logging.hh"

namespace gpm
{

MinPowerPolicy::MinPowerPolicy(double target_fraction)
    : fraction(target_fraction)
{
    GPM_ASSERT(target_fraction > 0.0 && target_fraction <= 1.0);
}

std::vector<PowerMode>
MinPowerPolicy::decide(const PolicyInput &in)
{
    GPM_ASSERT(in.predicted != nullptr);
    const ModeMatrix &m = *in.predicted;
    std::vector<PowerMode> all_turbo(m.numCores(), modes::Turbo);
    double target = fraction * m.totalBips(all_turbo);
    return MaxBipsPolicy::solveMinPower(m, target);
}

} // namespace gpm
