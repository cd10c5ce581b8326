/**
 * @file
 * The static, trace-based CMP power/performance analysis tool
 * (paper Section 3.1).
 *
 * N per-core ProfileCursors progress simultaneously through their
 * workloads in wall-clock time. Statistics update every
 * "delta sim time" (50 us); the global manager is invoked at every
 * "explore time" (500 us) and its mode directives are applied
 * simultaneously at all cores. When any core changes mode, all cores
 * stall for the longest transition among them (conservative
 * synchronization, Section 5.1), with CPU power still consumed.
 *
 * Termination follows the paper: the run ends when the first
 * benchmark completes, so all cores are utilized for the whole
 * experimented region. (All-done and fixed-time terminations are
 * also available.)
 *
 * An optional analytic contention model approximates shared-L2/bus
 * queueing by dilating per-core progress in proportion to the chip's
 * aggregate L2-miss traffic; the full-CMP model in uarch/cmp_system
 * is the reference for validating it.
 */

#ifndef GPM_SIM_CMP_SIM_HH
#define GPM_SIM_CMP_SIM_HH

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/global_manager.hh"
#include "power/dvfs.hh"
#include "power/power_model.hh"
#include "power/thermal.hh"
#include "sim/timeline.hh"
#include "trace/phase_profile.hh"
#include "util/units.hh"

namespace gpm
{

/** Tunable parameters of the trace-based CMP simulator. */
struct SimConfig
{
    /** Statistics update period [us]. */
    MicroSec deltaSimUs = 50.0;
    /** Global-manager invocation period [us]. */
    MicroSec exploreUs = 500.0;

    /** Run-termination conditions. */
    enum class Termination
    {
        FirstDone, ///< stop when the first benchmark completes
        AllDone,   ///< run until every benchmark completes
        FixedTime, ///< run exactly maxTimeUs
    };
    Termination termination = Termination::FirstDone;

    /** Hard wall-clock cap [us]. */
    MicroSec maxTimeUs = 10'000'000.0;

    /** Initial mode of every core. */
    PowerMode startMode = modes::Turbo;

    /** Stall all cores for the longest transition on mode changes. */
    bool stallDuringTransitions = true;

    /** Enable the analytic shared-L2/bus contention model. */
    bool contention = false;
    /** Bus service time per off-chip access [ns] (contention). */
    double busServiceNs = 4.0;

    /**
     * Phase-shift stride for many-core scenarios: core c starts its
     * workload at fraction frac(c * stride) of the instruction
     * stream and wraps around (see ProfileCursor::seekFraction), so
     * cores replicating the same profile still exercise different
     * phases at any instant. 0 disables (every core starts at the
     * beginning — the paper's original setup).
     */
    double phaseShiftStride = 0.0;

    /**
     * Base phase shift added to every core's stride shift: core c
     * starts at fraction frac(phaseShiftBase + c * phaseShiftStride).
     * The cluster layer uses it to start otherwise-identical chips
     * at different regions of the workload streams. 0 disables.
     */
    double phaseShiftBase = 0.0;

    /** Record a per-delta-step timeline (needed for the figures). */
    bool recordTimeline = true;

    /**
     * Relative 1-sigma noise applied to the power/BIPS samples the
     * local monitors report (Foxton-style current sensors are not
     * ideal). 0 disables. Noise is applied to measurements only;
     * the true energy/instruction accounting is unaffected.
     */
    double sensorNoise = 0.0;
    /** Seed for the sensor-noise stream. */
    std::uint64_t sensorNoiseSeed = 0x5eed;

    /** Track per-core junction temperatures (RC thermal model). */
    bool trackThermal = false;
    /** Thermal-node parameters when tracking is enabled. */
    ThermalParams thermal;
};

/** Outcome of one CmpSim run. */
struct SimResult
{
    /** Wall-clock length of the measured window [us]. */
    MicroSec endUs = 0.0;
    /** Instructions each core committed inside the window. */
    std::vector<double> coreInstructions;
    /** Core energy inside the window [J]. */
    std::vector<double> coreEnergyJ;
    /** Uncore (L2 + memory) energy [J]. */
    double uncoreEnergyJ = 0.0;
    /** Which cores finished their workload inside the window. */
    std::vector<bool> finished;
    /** Recorded timeline (empty when disabled). */
    Timeline timeline;
    /** Manager statistics (zero for static runs). */
    ManagerStats managerStats;
    /** Mean relative prediction errors (Section 5.5). */
    double predPowerError = 0.0;
    double predBipsError = 0.0;
    /** Peak junction temperature any core reached [C] (0 when
     *  thermal tracking is off). */
    double peakTempC = 0.0;

    /** Average total chip power (cores + uncore) [W]. */
    Watts avgChipPowerW() const;

    /**
     * Average core power over the window [W] — the budgeted
     * quantity: budgets constrain what DVFS can control.
     */
    Watts avgCorePowerW() const;

    /** Chip throughput: total instructions / window [BIPS]. */
    double chipBips() const;

    /** Per-core throughput over the window [BIPS]. */
    std::vector<double> coreBips() const;
};

/**
 * The trace-based CMP simulator. Bind profiles once; each run*()
 * call replays from the beginning (cursors are rewound).
 *
 * Thread-safety contract: run(), runStatic() and referencePowerW()
 * are safe to call concurrently on one instance. Every piece of
 * per-run state (cursors, accumulators, scratch buffers) lives on
 * the calling thread's stack; the members are either immutable after
 * construction (profiles, dvfs, cfg, per-mode stall powers, uncore
 * model) or synchronized (the cached reference power, initialized
 * under std::once_flag).
 */
class CmpSim
{
  public:
    /**
     * @param profiles one profile per core (must outlive the sim)
     * @param dvfs     mode table
     * @param cfg      simulator parameters
     */
    CmpSim(std::vector<const WorkloadProfile *> profiles,
           const DvfsTable &dvfs, SimConfig cfg = SimConfig{});

    /** Number of cores. */
    std::size_t numCores() const { return profs.size(); }

    /**
     * Dynamic-management run: the manager decides at t = 0 (from a
     * profile bootstrap) and at every explore time. The budget
     * schedule is expressed as fractions of @p reference_power_w
     * (total chip, cores + uncore).
     *
     * @param record_timeline overrides cfg.recordTimeline for this
     *        run (sweeps evaluate thousands of points whose
     *        timelines nobody reads)
     */
    SimResult run(GlobalManager &mgr, const BudgetSchedule &budget,
                  Watts reference_power_w,
                  std::optional<bool> record_timeline = std::nullopt);

    /** Fixed-mode run (static assignments, references, bounds). */
    SimResult
    runStatic(const std::vector<PowerMode> &modes,
              std::optional<bool> record_timeline = std::nullopt);

    /**
     * Average core power of the all-Turbo run — the reference
     * "maximum chip power" that budget fractions scale (cached).
     * Budgets are defined over core power, the quantity per-core
     * DVFS can control; uncore power is simulated and reported but
     * lies outside the budget (see DESIGN.md).
     */
    Watts referencePowerW();

  private:
    /** Shared inner loop; mgr may be null (static run). */
    SimResult runInternal(GlobalManager *mgr,
                          const BudgetSchedule *budget,
                          Watts reference_power_w,
                          const std::vector<PowerMode> &static_modes,
                          bool record_timeline);

    std::vector<const WorkloadProfile *> profs;
    const DvfsTable &dvfs;
    SimConfig cfg;
    /** Ungated core power of each mode (a stalled or finished core)
     *  [W], indexed by PowerMode. */
    const std::vector<Watts> stallW;
    UncorePowerModel uncore;
    /** Lazily computed all-Turbo core power; guarded by refOnce so
     *  concurrent referencePowerW() calls are race-free. */
    std::once_flag refOnce;
    Watts cachedRefW = 0.0;
};

} // namespace gpm

#endif // GPM_SIM_CMP_SIM_HH
