#include "service/degrade.hh"

namespace gpm::degrade
{

namespace
{

bool
isDpRung(const std::string &policy)
{
    // "MaxBIPS-DP" or "MaxBIPS-DP<G>": any grid sits on the same
    // rung — the grid is an accuracy knob, not a different solver.
    return policy.rfind("MaxBIPS-DP", 0) == 0;
}

} // namespace

std::optional<int>
rungIndex(const std::string &policy)
{
    if (policy == "MaxBIPS")
        return 0;
    if (isDpRung(policy))
        return 1;
    if (policy == "GreedyTurbo")
        return 2;
    if (policy == "WaterFill")
        return 3;
    return std::nullopt;
}

bool
onLadder(const std::string &policy)
{
    return rungIndex(policy).has_value();
}

std::optional<std::string>
nextRung(const std::string &policy)
{
    auto idx = rungIndex(policy);
    if (!idx)
        return std::nullopt;
    switch (*idx) {
    case 0:
        return "MaxBIPS-DP";
    case 1:
        return "GreedyTurbo";
    case 2:
        return "WaterFill";
    default:
        return std::nullopt; // bottom rung
    }
}

} // namespace gpm::degrade
