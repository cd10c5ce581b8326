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
 * experimented region.
 *
 * An optional analytic contention model approximates shared-L2/bus
 * queueing by dilating per-core progress in proportion to the chip's
 * aggregate L2-miss traffic; the full-CMP model in uarch/cmp_system
 * is the reference for validating it.
 */

#ifndef GPM_SIM_CMP_SIM_HH
#define GPM_SIM_CMP_SIM_HH

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "core/global_manager.hh"
#include "power/dvfs.hh"
#include "power/power_model.hh"
#include "sim/timeline.hh"
#include "trace/phase_profile.hh"
#include "util/units.hh"

namespace gpm
{

/**
 * Tunable parameters of the trace-based CMP simulator. Every run ends
 * when the first benchmark completes (paper Section 3.1), starts all
 * cores at Turbo, and stops at a 10 s safety cap no benchmark
 * reaches; those are not knobs.
 */
struct SimConfig
{
    /** Statistics update period [us]. */
    MicroSec deltaSimUs = 50.0;
    /** Global-manager invocation period [us]. */
    MicroSec exploreUs = 500.0;

    /** Stall all cores for the longest transition on mode changes. */
    bool stallDuringTransitions = true;

    /** Enable the analytic shared-L2/bus contention model (4 ns of
     *  bus service per off-chip access). */
    bool contention = false;

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

    /**
     * Relative 1-sigma noise applied to the power/BIPS samples the
     * local monitors report (Foxton-style current sensors are not
     * ideal). 0 disables. Noise is applied to measurements only;
     * the true energy/instruction accounting is unaffected. Every
     * run draws it from the same seed.
     */
    double sensorNoise = 0.0;

    /** Track per-core junction temperatures (RC thermal model with
     *  the default ThermalParams). */
    bool trackThermal = false;
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
 * Every core's first maxSteps delta steps at every mode, each mode
 * held from step 0, replayed once. For each (core, mode) it holds
 * the Delta of each step ProfileCursor::advance(deltaSimUs, mode)
 * takes from the core's start cursor, and the cursor's Mark after
 * it. Without contention every step runs at dilation 1, so a core's
 * steps depend on its own modes only: while a core keeps the mode it
 * ran at step 0, its steps are these, whatever the decisions give the
 * other cores. So one memo serves every run of the simulator that
 * built it; a CmpSim builds its own on its second run. run() and
 * runStatic() read a core's step j from it while the core holds its
 * step-0 mode. At every later decision each such core's cursor is
 * set from the memo, so the Oracle peeks, and a core whose mode
 * changes resumes live, from the cursor a replay holds there; at
 * step maxSteps every core still on the memo takes its cursor and
 * advances live. The values are the same advance() calls on the
 * same inputs, so results are bit-identical with and without a memo.
 *
 * Bounded whatever the sim knobs ask for: maxSteps steps per
 * (core, mode), no further Deltas past a core's finish. A step costs
 * a 48 B Delta and a 32 B Mark, so at 3 modes a core costs
 * 3 x 32 x 80 B = 7.5 KB and a 256-core chip ~1.9 MB. Empty with
 * contention on: dilation then follows the chip's traffic. Immutable
 * once built, so concurrent runs share it.
 */
class HeldModeMemo
{
  public:
    /** Steps memoized per (core, mode). Few cores change mode in a
     *  run, so the memo serves most steps of any run this short: a
     *  perfbench manycore request (~23 steps) makes ~56 live
     *  advance() calls at 32 and ~1,100 at 16 (docs/PERF.md). */
    static constexpr std::size_t maxSteps = 32;

    /** Steps memoized per (core, mode): maxSteps, or 0 when empty. */
    std::size_t steps() const { return deltas.empty() ? 0 : maxSteps; }

  private:
    friend class CmpSim;

    /** Step j of core c at mode m, at [(j * cores + c) * modes + m]:
     *  a step's reads are adjacent. Entries after a core's finishing
     *  step stay zero; no run reads them. */
    std::vector<ProfileCursor::Delta> deltas;
    /** The cursor after step j of core c at mode m, at the same
     *  index. Past a core's finish it stays where the core finished. */
    std::vector<ProfileCursor::Mark> marks;
};

/**
 * The trace-based CMP simulator. Bind profiles once; each run*()
 * call replays from the beginning (cursors are rewound).
 *
 * What no decision can change is computed once and kept here: each
 * core's (phase-shifted) start cursor and the first decision's
 * bootstrap samples when the simulator is built, the all-Turbo
 * reference run on first request, and the HeldModeMemo on the
 * second run()/runStatic(). The first run replays every step, so a
 * simulator that runs once builds no memo; reference() is not a run.
 *
 * Thread-safety contract: run(), runStatic(), reference() and
 * referencePowerW() are safe to call concurrently on one instance.
 * Every piece of per-run state (cursors, accumulators, scratch
 * buffers) lives on the calling thread's stack; the members are
 * either immutable after construction (profiles, dvfs, cfg, per-mode
 * stall powers, start cursors, bootstrap samples, uncore model) or
 * written once under a std::once_flag (the reference run, the memo)
 * and read-only after it.
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
     * @param record_timeline record a per-delta-step timeline (the
     *        figures read it; sweeps evaluate thousands of points
     *        whose timelines nobody reads)
     */
    SimResult run(GlobalManager &mgr, const BudgetSchedule &budget,
                  Watts reference_power_w, bool record_timeline = false);

    /** Fixed-mode run (static assignments, bounds). */
    SimResult runStatic(const std::vector<PowerMode> &modes,
                        bool record_timeline = false);

    /**
     * The all-Turbo run, computed once (without a timeline). It does
     * not count as a run: the memo still builds on the second
     * run()/runStatic().
     */
    const SimResult &reference();

    /**
     * Average core power of reference() — the "maximum chip power"
     * that budget fractions scale. Budgets are defined over core
     * power, the quantity per-core DVFS can control; uncore power is
     * simulated and reported but lies outside the budget (see
     * DESIGN.md).
     */
    Watts referencePowerW() { return reference().avgCorePowerW(); }

    /** The memo this simulator built on its second run: empty before
     *  it, and always with contention on. Read it while no run is in
     *  flight. */
    const HeldModeMemo &heldModeMemo() const { return memo; }

  private:
    /** The memo the next run reads: none for the first run, which
     *  sets `ran`; the second builds it under memoOnce. */
    const HeldModeMemo *nextRunMemo();

    /** Replay every core's first HeldModeMemo::maxSteps steps at every
     *  mode once: modes x maxSteps advance() calls per core. */
    HeldModeMemo buildMemo() const;

    /** Shared inner loop; mgr may be null (static run). */
    SimResult runInternal(GlobalManager *mgr,
                          const BudgetSchedule *budget,
                          Watts reference_power_w,
                          const std::vector<PowerMode> &static_modes,
                          bool record_timeline,
                          const HeldModeMemo *memo);

    std::vector<const WorkloadProfile *> profs;
    const DvfsTable &dvfs;
    SimConfig cfg;
    /** Ungated core power of each mode (a stalled or finished core)
     *  [W], indexed by PowerMode. */
    const std::vector<Watts> stallW;
    /** Each core's cursor at its start: the beginning of its
     *  workload, or the phase shift cfg asks for. */
    const std::vector<ProfileCursor> startCursors;
    /** The first decision's samples: each core's peek of one explore
     *  interval at Turbo from its start cursor. */
    const std::vector<CoreSample> bootstrap;
    UncorePowerModel uncore;
    /** reference(), written once under refOnce. */
    std::once_flag refOnce;
    SimResult ref;
    /** Set by the first run(), runStatic() included. */
    std::atomic<bool> ran{false};
    std::once_flag memoOnce;
    HeldModeMemo memo;
};

} // namespace gpm

#endif // GPM_SIM_CMP_SIM_HH
