#include "types.hh"

#include "util/logging.hh"

namespace gpm
{

ModeMatrix::ModeMatrix(std::size_t cores, std::size_t modes)
    : nCores(cores), nModes(modes), power(cores * modes, 0.0),
      perf(cores * modes, 0.0)
{
    GPM_ASSERT(cores > 0 && modes > 0);
}

const double *
ModeMatrix::powerRow(std::size_t c) const
{
    GPM_ASSERT(c < nCores);
    return power.data() + c * nModes;
}

const double *
ModeMatrix::bipsRow(std::size_t c) const
{
    GPM_ASSERT(c < nCores);
    return perf.data() + c * nModes;
}

Watts
ModeMatrix::totalPowerW(const std::vector<PowerMode> &assign) const
{
    GPM_ASSERT(assign.size() == nCores);
    Watts total = 0.0;
    for (std::size_t c = 0; c < nCores; c++)
        total += powerW(c, assign[c]);
    return total;
}

double
ModeMatrix::totalBips(const std::vector<PowerMode> &assign) const
{
    GPM_ASSERT(assign.size() == nCores);
    double total = 0.0;
    for (std::size_t c = 0; c < nCores; c++)
        total += bips(c, assign[c]);
    return total;
}

} // namespace gpm
