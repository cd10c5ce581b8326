#include "core/policies.hh"

#include <cstdlib>

#include "util/logging.hh"

namespace gpm
{

/** makePolicy without the fatal(): nullptr on unknown/malformed. */
static std::unique_ptr<Policy>
tryMakePolicy(const std::string &name)
{
    if (name == "MaxBIPS")
        return std::make_unique<MaxBipsPolicy>();
    if (name.rfind("MaxBIPS-DP", 0) == 0) {
        unsigned grid = MaxBipsDpPolicy::defaultGrid;
        if (name.size() > 10) {
            const std::string suffix = name.substr(10);
            if (suffix.find_first_not_of("0123456789") !=
                std::string::npos)
                return nullptr;
            long g = std::atol(suffix.c_str());
            if (g < 2 || g > 65536)
                return nullptr;
            grid = static_cast<unsigned>(g);
        }
        return std::make_unique<MaxBipsDpPolicy>(grid);
    }
    if (name == "WaterFill")
        return std::make_unique<WaterFillPolicy>();
    if (name == "GreedyTurbo")
        return std::make_unique<GreedyTurboPolicy>();
    if (name == "Priority")
        return std::make_unique<PriorityPolicy>();
    if (name == "PullHiPushLo")
        return std::make_unique<PullHiPushLoPolicy>();
    if (name == "ChipWideDVFS")
        return std::make_unique<ChipWideDvfsPolicy>();
    if (name == "Oracle")
        return std::make_unique<OraclePolicy>();
    if (name == "UniformBudget")
        return std::make_unique<UniformBudgetPolicy>();
    if (name == "ExploreMaxBIPS")
        return std::make_unique<ExplorationPolicy>();
    if (name == "HistoryMaxBIPS")
        return std::make_unique<HistoryPolicy>();
    if (name.rfind("MinPower", 0) == 0) {
        double frac = 0.95;
        if (name.size() > 8) {
            frac = std::atof(name.substr(8).c_str()) / 100.0;
            if (frac <= 0.0 || frac > 1.0)
                return nullptr;
        }
        return std::make_unique<MinPowerPolicy>(frac);
    }
    return nullptr;
}

bool
isPolicyName(const std::string &name)
{
    return tryMakePolicy(name) != nullptr;
}

std::unique_ptr<Policy>
makePolicy(const std::string &name)
{
    auto p = tryMakePolicy(name);
    if (!p)
        fatal("unknown or malformed policy '%s'", name.c_str());
    return p;
}

} // namespace gpm
