#include "core/policies.hh"

#include "util/flags.hh"
#include "util/logging.hh"

namespace gpm
{

/**
 * The numeric suffix of a policy name such as "MaxBIPS-DP256" or
 * "MinPower85": decimal digits only, with a value in [lo, hi], or
 * -1. A prefix parse would read "MinPower90abc" or "MinPower0x5A"
 * as a valid target.
 */
static long
digitSuffix(const std::string &suffix, long lo, long hi)
{
    if (suffix.find_first_not_of("0123456789") != std::string::npos)
        return -1;
    auto v = parseNumber<long>(suffix.c_str());
    return !v || *v < lo || *v > hi ? -1 : *v;
}

/** makePolicy without the fatal(): nullptr on unknown/malformed. */
static std::unique_ptr<Policy>
tryMakePolicy(const std::string &name)
{
    if (name == "MaxBIPS")
        return std::make_unique<MaxBipsPolicy>();
    if (name.rfind("MaxBIPS-DP", 0) == 0) {
        unsigned grid = MaxBipsDpPolicy::defaultGrid;
        if (name.size() > 10) {
            long g = digitSuffix(name.substr(10), 2, 65536);
            if (g < 0)
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
            long pct = digitSuffix(name.substr(8), 1, 100);
            if (pct < 0)
                return nullptr;
            frac = static_cast<double>(pct) / 100.0;
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

bool
isExactSearchPolicy(const std::string &name)
{
    return name == "MaxBIPS" || name == "Oracle" ||
        name == "HistoryMaxBIPS" || name == "ExploreMaxBIPS" ||
        name == "Static" ||
        (name.rfind("MinPower", 0) == 0 && isPolicyName(name));
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
