#include "dvfs.hh"

#include <algorithm>

#include "util/logging.hh"

namespace gpm
{

DvfsTable::DvfsTable(std::vector<OperatingPoint> points_,
                     Volts nominal_vdd, Hertz nominal_freq,
                     double slew_rate)
    : points(std::move(points_)), nominalVddV(nominal_vdd),
      nominalFreq(nominal_freq), slewVoltsPerSec(slew_rate)
{
    if (points.empty())
        fatal("DvfsTable requires at least one operating point");
    if (nominal_vdd <= 0 || nominal_freq <= 0 || slew_rate <= 0)
        fatal("DvfsTable: nominal Vdd/f and slew rate must be > 0");
    for (std::size_t i = 0; i < points.size(); i++) {
        const auto &p = points[i];
        if (p.vScale <= 0 || p.fScale <= 0)
            fatal("DvfsTable: mode '%s' has non-positive scales",
                  p.name.c_str());
        if (i > 0 && p.fScale >= points[i - 1].fScale)
            fatal("DvfsTable: modes must be ordered fastest first");
    }
}

DvfsTable
DvfsTable::classic3()
{
    return DvfsTable({{"Turbo", 1.00, 1.00},
                      {"Eff1", 0.95, 0.95},
                      {"Eff2", 0.85, 0.85}},
                     1.300, 1.0e9, 10.0e-3 * 1.0e6 /* 10 mV/us */);
}

DvfsTable
DvfsTable::subLinearVoltage()
{
    return DvfsTable({{"Turbo", 1.000, 1.00},
                      {"Eff1", 0.975, 0.95},
                      {"Eff2", 0.925, 0.85}},
                     1.300, 1.0e9, 10.0e-3 * 1.0e6);
}

DvfsTable
DvfsTable::linear(std::size_t n, double lowest_scale)
{
    GPM_ASSERT(n >= 1);
    GPM_ASSERT(lowest_scale > 0.0 && lowest_scale <= 1.0);
    std::vector<OperatingPoint> pts;
    for (std::size_t i = 0; i < n; i++) {
        double s = n == 1
            ? 1.0
            : 1.0 - (1.0 - lowest_scale) * static_cast<double>(i) /
                static_cast<double>(n - 1);
        // Two-step append instead of `"M" + std::to_string(i)`:
        // operator+(const char*, string&&) trips GCC 12's spurious
        // -Wrestrict at -O2 (libstdc++ PR 105651), which GPM_WERROR
        // escalates.
        std::string name = "M";
        name += std::to_string(i);
        pts.push_back({std::move(name), s, s});
    }
    return DvfsTable(std::move(pts), 1.300, 1.0e9, 10.0e-3 * 1.0e6);
}

Hertz
DvfsTable::frequency(PowerMode m) const
{
    return nominalFreq * point(m).fScale;
}

MicroSec
DvfsTable::maxTransitionUs() const
{
    MicroSec best = 0.0;
    for (std::size_t a = 0; a < points.size(); a++)
        for (std::size_t b = 0; b < points.size(); b++)
            best = std::max(best,
                            transitionUs(static_cast<PowerMode>(a),
                                         static_cast<PowerMode>(b)));
    return best;
}

BudgetSchedule::BudgetSchedule(double fraction)
    : steps{{0.0, fraction}}
{
    GPM_ASSERT(fraction > 0.0);
}

BudgetSchedule::BudgetSchedule(
    std::vector<std::pair<MicroSec, double>> steps_)
    : steps(std::move(steps_))
{
    if (steps.empty() || steps.front().first != 0.0)
        fatal("BudgetSchedule: steps must be non-empty and start at 0");
    for (std::size_t i = 1; i < steps.size(); i++)
        if (steps[i].first <= steps[i - 1].first)
            fatal("BudgetSchedule: steps must be time-sorted");
    for (const auto &[t, frac] : steps)
        if (frac <= 0.0)
            fatal("BudgetSchedule: budget fractions must be > 0");
}

double
BudgetSchedule::at(MicroSec t_us) const
{
    double frac = steps.front().second;
    for (const auto &[t, f] : steps) {
        if (t_us >= t)
            frac = f;
        else
            break;
    }
    return frac;
}

} // namespace gpm
