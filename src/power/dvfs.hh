/**
 * @file
 * DVFS operating points ("power modes") and transition modelling.
 *
 * The paper defines three linear-DVFS modes for POWER4/5-class cores:
 *
 *   Turbo : (Vdd, f)            = (1.300 V, 1.0 GHz)
 *   Eff1  : (0.95 Vdd, 0.95 f)  = (1.235 V, 0.95 GHz)
 *   Eff2  : (0.85 Vdd, 0.85 f)  = (1.105 V, 0.85 GHz)
 *
 * Dynamic power scales cubically with the linear scale s (V^2 * f),
 * performance roughly linearly with f (better for memory-bound code,
 * since memory is asynchronous). Voltage transitions proceed at
 * 10 mV/us, giving the Table 5 overheads of 6.5 / 13 / 19.5 us.
 *
 * DvfsTable supports an arbitrary number of modes so that the
 * mode-count ablation study (chip-wide DVFS with more modes, paper
 * Section 5.3) can be expressed with the same machinery.
 */

#ifndef GPM_POWER_DVFS_HH
#define GPM_POWER_DVFS_HH

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/units.hh"

namespace gpm
{

/**
 * Index of a power mode in a DvfsTable. Mode 0 is always the fastest
 * ("Turbo"); higher indices are progressively slower/cheaper.
 */
using PowerMode = std::uint8_t;

/** The paper's three canonical modes. */
namespace modes
{
constexpr PowerMode Turbo = 0;
constexpr PowerMode Eff1 = 1;
constexpr PowerMode Eff2 = 2;
} // namespace modes

/** One DVFS operating point. */
struct OperatingPoint
{
    /** Human-readable mode name ("Turbo", "Eff1", ...). */
    std::string name;
    /** Linear voltage scale relative to nominal Vdd. */
    double vScale;
    /** Linear frequency scale relative to nominal f. */
    double fScale;
};

/**
 * Table of DVFS operating points for one core, plus nominal
 * voltage/frequency and the voltage-regulator slew rate.
 */
class DvfsTable
{
  public:
    /**
     * Build a table from explicit operating points.
     *
     * @param points       modes ordered fastest first
     * @param nominal_vdd  Turbo supply voltage [V]
     * @param nominal_freq Turbo clock frequency [Hz]
     * @param slew_rate    regulator slew rate [V/s]
     */
    DvfsTable(std::vector<OperatingPoint> points, Volts nominal_vdd,
              Hertz nominal_freq, double slew_rate);

    /**
     * The paper's default table: Turbo / Eff1 / Eff2 at
     * (1.0, 0.95, 0.85) linear scale, Vdd 1.300 V, f 1 GHz,
     * slew 10 mV/us.
     */
    static DvfsTable classic3();

    /**
     * A linear table with @p n modes spanning scale 1.0 down to
     * @p lowest_scale (inclusive); used by the mode-count ablation.
     */
    static DvfsTable linear(std::size_t n, double lowest_scale = 0.85);

    /**
     * Sub-linear voltage variant of classic3(): frequency scales as
     * usual (1.0 / 0.95 / 0.85) but voltage only half as fast
     * (1.0 / 0.975 / 0.925). Models emerging low-Vdd generations
     * where the paper notes linear V-f scaling is optimistic: power
     * drops less than cubically, raising the all-Eff2 power floor.
     */
    static DvfsTable subLinearVoltage();

    /** Number of modes. */
    std::size_t numModes() const { return points.size(); }

    /** Operating point of @p m. */
    const OperatingPoint &point(PowerMode m) const
    {
        GPM_ASSERT(valid(m));
        return points[m];
    }

    /** Absolute supply voltage of mode @p m [V]. */
    Volts voltage(PowerMode m) const
    {
        return nominalVddV * point(m).vScale;
    }

    /** Absolute clock frequency of mode @p m [Hz]. */
    Hertz frequency(PowerMode m) const;

    /** Nominal (Turbo) frequency [Hz]. */
    Hertz nominalFrequency() const { return nominalFreq; }

    /** Nominal (Turbo) supply voltage [V]. */
    Volts nominalVdd() const { return nominalVddV; }

    /**
     * Idealized dynamic-power scale of mode @p m relative to Turbo:
     * vScale^2 * fScale (cubic for linear DVFS).
     */
    double powerScale(PowerMode m) const
    {
        const auto &p = point(m);
        return p.vScale * p.vScale * p.fScale;
    }

    /**
     * Idealized performance (BIPS) scale of mode @p m relative to
     * Turbo: fScale (an upper bound on degradation; memory-bound
     * code does better).
     */
    double perfScale(PowerMode m) const { return point(m).fScale; }

    /**
     * Voltage-transition time between two modes [us]
     * (|dV| / slew rate); 0 for from == to.
     */
    MicroSec transitionUs(PowerMode from, PowerMode to) const
    {
        double dv = std::abs(voltage(from) - voltage(to));
        return dv / slewVoltsPerSec * usPerSecond;
    }

    /** Largest transition time in the table [us]. */
    MicroSec maxTransitionUs() const;

    /** True when @p m is a valid mode index. */
    bool valid(PowerMode m) const { return m < points.size(); }

    /** Slowest (cheapest) mode index. */
    PowerMode slowest() const
    {
        return static_cast<PowerMode>(points.size() - 1);
    }

  private:
    std::vector<OperatingPoint> points;
    Volts nominalVddV;
    Hertz nominalFreq;
    double slewVoltsPerSec;
};

/**
 * A time-varying chip power budget, expressed as a fraction of a
 * reference "maximum chip power" (the all-Turbo average power of the
 * workload combination under study). Piecewise-constant in time so
 * the Figure 6 scenario (budget drop from 90% to 70% mid-run, e.g. a
 * cooling failure) can be expressed.
 */
class BudgetSchedule
{
  public:
    /** Constant budget at @p fraction of reference power. */
    explicit BudgetSchedule(double fraction);

    /**
     * Piecewise-constant budget: steps.at(k) = {time_us, fraction}
     * applies from time_us onward. Must be sorted by time and start
     * at 0.
     */
    explicit BudgetSchedule(
        std::vector<std::pair<MicroSec, double>> steps);

    /** Budget fraction in effect at time @p t_us. */
    double at(MicroSec t_us) const;

    /** First (t = 0) budget fraction. */
    double initial() const { return steps.front().second; }

  private:
    std::vector<std::pair<MicroSec, double>> steps;
};

} // namespace gpm

#endif // GPM_POWER_DVFS_HH
