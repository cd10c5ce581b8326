#include "cmp_sim.hh"

#include <algorithm>
#include <cmath>

#include "power/thermal.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace gpm
{

Watts
SimResult::avgChipPowerW() const
{
    if (endUs <= 0.0)
        return 0.0;
    double e = uncoreEnergyJ;
    for (double c : coreEnergyJ)
        e += c;
    return e / (endUs * 1e-6);
}

Watts
SimResult::avgCorePowerW() const
{
    if (endUs <= 0.0)
        return 0.0;
    double e = 0.0;
    for (double c : coreEnergyJ)
        e += c;
    return e / (endUs * 1e-6);
}

double
SimResult::chipBips() const
{
    if (endUs <= 0.0)
        return 0.0;
    double insts = 0.0;
    for (double c : coreInstructions)
        insts += c;
    return insts / (endUs * 1000.0);
}

std::vector<double>
SimResult::coreBips() const
{
    std::vector<double> b(coreInstructions.size(), 0.0);
    if (endUs <= 0.0)
        return b;
    for (std::size_t c = 0; c < b.size(); c++)
        b[c] = coreInstructions[c] / (endUs * 1000.0);
    return b;
}

namespace
{

/** Safety cap on a run's length [us]: every run ends when its first
 *  benchmark completes, long before. */
constexpr MicroSec kMaxTimeUs = 10'000'000.0;
/** Bus service time per off-chip access [ns] (contention model). */
constexpr double kBusServiceNs = 4.0;
/** Seed of the sensor-noise stream. */
constexpr std::uint64_t kSensorNoiseSeed = 0x5eed;

/** @p profiles, once they and @p cfg are fit to simulate. */
std::vector<const WorkloadProfile *>
checked(std::vector<const WorkloadProfile *> profiles,
        const DvfsTable &dvfs, const SimConfig &cfg)
{
    if (profiles.empty())
        fatal("CmpSim requires at least one core");
    for (const auto *p : profiles) {
        GPM_ASSERT(p != nullptr);
        GPM_ASSERT(p->modes.size() == dvfs.numModes());
    }
    if (cfg.deltaSimUs <= 0.0 || cfg.exploreUs < cfg.deltaSimUs)
        fatal("CmpSim: need 0 < deltaSimUs <= exploreUs");
    return profiles;
}

/** Ungated stall power of every mode of @p dvfs [W]. */
std::vector<Watts>
stallPowers(const DvfsTable &dvfs)
{
    CorePowerModel model(CorePowerParams::classic(), dvfs);
    std::vector<Watts> w(dvfs.numModes());
    for (std::size_t m = 0; m < w.size(); m++)
        w[m] = model.stallPower(static_cast<PowerMode>(m));
    return w;
}

/** Core c starts at fraction frac(phaseShiftBase + c * stride). */
std::vector<ProfileCursor>
startCursorsOf(const std::vector<const WorkloadProfile *> &profs,
               const SimConfig &cfg)
{
    std::vector<ProfileCursor> cursors;
    cursors.reserve(profs.size());
    for (const auto *p : profs)
        cursors.emplace_back(*p);
    if (cfg.phaseShiftStride > 0.0 || cfg.phaseShiftBase > 0.0) {
        for (std::size_t c = 0; c < cursors.size(); c++) {
            double f = cfg.phaseShiftBase +
                static_cast<double>(c) * cfg.phaseShiftStride;
            cursors[c].seekFraction(f - std::floor(f));
        }
    }
    return cursors;
}

double
bipsOf(double insts, MicroSec us)
{
    return us > 0.0 ? insts / (us * 1000.0) : 0.0;
}

/** The first decision's samples: the trace-based tool knows the
 *  first interval's behaviour, so it bootstraps from the profiles.
 *  Every core starts at Turbo. */
std::vector<CoreSample>
bootstrapSamples(const std::vector<ProfileCursor> &cursors,
                 const SimConfig &cfg, const std::vector<Watts> &stallW)
{
    std::vector<CoreSample> samples(cursors.size());
    for (std::size_t c = 0; c < cursors.size(); c++) {
        CoreSample &s = samples[c];
        s.mode = modes::Turbo;
        auto d = cursors[c].peek(cfg.exploreUs, modes::Turbo);
        if (d.usedUs > 0.0) {
            s.powerW = d.energyJ / (d.usedUs * 1e-6);
            s.bips = bipsOf(d.instructions, d.usedUs);
            s.memIntensity = d.l2Misses / d.usedUs;
        } else {
            s.active = false;
            s.powerW = stallW[modes::Turbo];
        }
    }
    return samples;
}

} // namespace

CmpSim::CmpSim(std::vector<const WorkloadProfile *> profiles,
               const DvfsTable &dvfs_, SimConfig cfg_)
    : profs(checked(std::move(profiles), dvfs_, cfg_)), dvfs(dvfs_),
      cfg(cfg_), stallW(stallPowers(dvfs_)),
      startCursors(startCursorsOf(profs, cfg)),
      bootstrap(bootstrapSamples(startCursors, cfg, stallW)), uncore()
{
}

SimResult
CmpSim::run(GlobalManager &mgr, const BudgetSchedule &budget,
            Watts reference_power_w, bool record_timeline)
{
    return runInternal(&mgr, &budget, reference_power_w, {},
                       record_timeline, nextRunMemo());
}

SimResult
CmpSim::runStatic(const std::vector<PowerMode> &modes,
                  bool record_timeline)
{
    GPM_ASSERT(modes.size() == profs.size());
    return runInternal(nullptr, nullptr, 0.0, modes, record_timeline,
                       nextRunMemo());
}

const SimResult &
CmpSim::reference()
{
    std::call_once(refOnce, [this] {
        std::vector<PowerMode> all_turbo(profs.size(), modes::Turbo);
        ref = runInternal(nullptr, nullptr, 0.0, all_turbo, false,
                          nullptr);
    });
    return ref;
}

const HeldModeMemo *
CmpSim::nextRunMemo()
{
    // The load keeps a warm simulator's runs from all writing the
    // flag's cache line.
    if (!ran.load() && !ran.exchange(true))
        return nullptr;
    std::call_once(memoOnce, [this] { memo = buildMemo(); });
    return &memo;
}

HeldModeMemo
CmpSim::buildMemo() const
{
    HeldModeMemo memo;
    if (cfg.contention)
        return memo;
    const std::size_t n = profs.size();
    const std::size_t n_modes = dvfs.numModes();
    const std::size_t len = HeldModeMemo::maxSteps;
    memo.deltas.resize(len * n * n_modes);
    memo.marks.resize(len * n * n_modes);
    for (std::size_t c = 0; c < n; c++) {
        for (std::size_t mi = 0; mi < n_modes; mi++) {
            const auto m = static_cast<PowerMode>(mi);
            ProfileCursor cur = startCursors[c];
            bool finished = false;
            for (std::size_t j = 0; j < len; j++) {
                const std::size_t i = (j * n + c) * n_modes + mi;
                if (!finished) {
                    memo.deltas[i] = cur.advance(cfg.deltaSimUs, m);
                    finished = memo.deltas[i].finished;
                }
                memo.marks[i] = cur.mark();
            }
        }
    }
    return memo;
}

SimResult
CmpSim::runInternal(GlobalManager *mgr, const BudgetSchedule *budget,
                    Watts reference_power_w,
                    const std::vector<PowerMode> &static_modes,
                    bool record_timeline, const HeldModeMemo *memo)
{
    const std::size_t n = profs.size();
    const std::size_t n_modes = dvfs.numModes();
    const std::size_t memo_steps = memo ? memo->steps() : 0;

    // Every container this run touches is sized here, once. The
    // delta-step loop below performs no heap allocation in steady
    // state: the only allocating operations left are per *explore*
    // interval (the manager's returned mode vector and the optional
    // oracle matrix, at 1/10th the delta rate) and the amortized
    // geometric growth of the flat timeline arrays when recording.
    std::vector<ProfileCursor> cursors = startCursors;

    std::vector<PowerMode> mode_v =
        mgr ? std::vector<PowerMode>(n, modes::Turbo) : static_modes;

    // Cores that still hold the mode they ran at step 0 read their
    // steps from the memo; their cursors are brought up to date only
    // where something reads them.
    std::vector<char> on_memo(n, 1);

    struct Acc
    {
        double energyJ = 0.0;
        double insts = 0.0;
        double misses = 0.0;
    };
    std::vector<Acc> explore_acc(n);
    MicroSec explore_elapsed = 0.0;

    // Scratch buffers reused across iterations.
    std::vector<CoreSample> samples(n);
    std::vector<double> stall_energy(n, 0.0);
    std::vector<double> dilation(n, 1.0);
    std::vector<double> step_bips(n, 0.0);

    std::vector<Watts> last_step_power(n, 0.0);
    for (std::size_t c = 0; c < n; c++)
        last_step_power[c] = stallW[mode_v[c]];
    // Misses per us; only the contention model reads it.
    std::vector<double> last_miss_rate(n, 0.0);

    SimResult res;
    res.coreInstructions.assign(n, 0.0);
    res.coreEnergyJ.assign(n, 0.0);
    res.finished.assign(n, false);
    if (record_timeline) {
        res.timeline.start(n);
        res.timeline.reserve(256);
    }

    ChipThermalModel thermal(n);

    MicroSec t = 0.0;
    MicroSec next_explore = 0.0;
    bool first_decision = true;
    Rng sensor_rng(kSensorNoiseSeed);
    auto noisy = [&](double v) {
        if (cfg.sensorNoise <= 0.0)
            return v;
        return v * std::max(
            0.0, 1.0 + sensor_rng.gaussian(0.0, cfg.sensorNoise));
    };

    // Future-exact matrices for the oracle policy: evaluate the next
    // explore interval at every mode directly from the profiles,
    // discounting BIPS for the transition the switch would incur.
    auto build_oracle = [&]() {
        ModeMatrix om(n, dvfs.numModes());
        for (std::size_t c = 0; c < n; c++) {
            for (std::size_t mi = 0; mi < dvfs.numModes(); mi++) {
                auto m = static_cast<PowerMode>(mi);
                auto d = cursors[c].peek(cfg.exploreUs, m);
                if (d.usedUs <= 0.0) {
                    om.powerW(c, m) = stallW[m];
                    om.bips(c, m) = 0.0;
                    continue;
                }
                om.powerW(c, m) = d.energyJ / (d.usedUs * 1e-6);
                double tf = 1.0;
                if (m != mode_v[c]) {
                    MicroSec tr = dvfs.transitionUs(mode_v[c], m);
                    tf = cfg.exploreUs / (cfg.exploreUs + tr);
                }
                om.bips(c, m) =
                    bipsOf(d.instructions, cfg.exploreUs) * tf;
            }
        }
        return om;
    };

    std::size_t step = 0;
    // The run ends at the step in which a core finishes, so every
    // core starts every step unfinished.
    while (t < kMaxTimeUs) {
        const bool decide = mgr && t + 1e-6 >= next_explore;

        // Cores on the memo take the cursor a replay holds after
        // `step` steps: at a later decision (the Oracle peeks from
        // it, and a core whose mode changes advances from it) and
        // where the memo ends.
        if (step > 0 &&
            (step == memo_steps || (decide && step < memo_steps))) {
            const ProfileCursor::Mark *marks =
                &memo->marks[(step - 1) * n * n_modes];
            for (std::size_t c = 0; c < n; c++)
                if (on_memo[c])
                    cursors[c].restore(marks[c * n_modes + mode_v[c]]);
        }

        // ---- Explore boundary: consult the global manager --------
        if (decide) {
            if (!first_decision) {
                for (std::size_t c = 0; c < n; c++) {
                    CoreSample &s = samples[c];
                    s = CoreSample{};
                    s.mode = mode_v[c];
                    const Acc &a = explore_acc[c];
                    s.powerW = noisy(
                        explore_elapsed > 0.0
                            ? a.energyJ / (explore_elapsed * 1e-6)
                            : 0.0);
                    s.bips =
                        noisy(bipsOf(a.insts, explore_elapsed));
                    s.memIntensity = explore_elapsed > 0.0
                        ? a.misses / explore_elapsed
                        : 0.0;
                }
            }

            std::optional<ModeMatrix> oracle;
            if (mgr->wantsOracle())
                oracle = build_oracle();

            Watts core_budget = budget->at(t) * reference_power_w;
            std::vector<PowerMode> new_modes = mgr->atExplore(
                first_decision ? bootstrap : samples, core_budget,
                oracle ? &*oracle : nullptr);

            // Apply transitions: all cores stall for the longest
            // per-core transition; CPU power is still consumed.
            MicroSec stalled_us = 0.0;
            std::fill(stall_energy.begin(), stall_energy.end(), 0.0);
            if (!first_decision && cfg.stallDuringTransitions) {
                MicroSec trans = 0.0;
                for (std::size_t c = 0; c < n; c++)
                    if (new_modes[c] != mode_v[c])
                        trans = std::max(
                            trans,
                            dvfs.transitionUs(mode_v[c],
                                              new_modes[c]));
                if (trans > 0.0) {
                    for (std::size_t c = 0; c < n; c++) {
                        double e =
                            last_step_power[c] * trans * 1e-6;
                        res.coreEnergyJ[c] += e;
                        stall_energy[c] = e;
                    }
                    res.uncoreEnergyJ +=
                        uncore.baseW() * trans * 1e-6;
                    t += trans;
                    stalled_us = trans;
                }
            }
            // A core whose mode changes leaves the memo for good.
            if (!first_decision)
                for (std::size_t c = 0; c < n; c++)
                    if (new_modes[c] != mode_v[c])
                        on_memo[c] = 0;
            mode_v = new_modes;
            first_decision = false;
            explore_acc.assign(n, Acc{});
            explore_elapsed = 0.0;
            if (stalled_us > 0.0) {
                // The stall belongs to the interval being predicted:
                // predictions discount BIPS by explore/(explore+t),
                // so the measurement window must include the stall.
                explore_elapsed = stalled_us;
                for (std::size_t c = 0; c < n; c++)
                    explore_acc[c].energyJ = stall_energy[c];
            }
            next_explore = t + cfg.exploreUs;
        }

        // ---- One delta-sim interval -------------------------------
        const MicroSec dt = cfg.deltaSimUs;

        if (cfg.contention) {
            double rho = 0.0;
            for (double r : last_miss_rate)
                rho += r * kBusServiceNs / 1000.0;
            rho = std::min(rho, 0.95);
            double wait_ns = kBusServiceNs * rho / (1.0 - rho);
            for (std::size_t c = 0; c < n; c++)
                dilation[c] =
                    1.0 + last_miss_rate[c] * wait_ns / 1000.0;
        }

        const MicroSec step_t_us = t;
        double step_misses = 0.0;
        double step_accesses = 0.0;
        bool finished_now = false;

        // Past the memo every core advances live.
        const ProfileCursor::Delta *memo_step = step < memo_steps
            ? &memo->deltas[step * n * n_modes]
            : nullptr;
        for (std::size_t c = 0; c < n; c++) {
            const ProfileCursor::Delta d = memo_step && on_memo[c]
                ? memo_step[c * n_modes + mode_v[c]]
                : cursors[c].advance(dt, mode_v[c], dilation[c]);
            double step_energy = d.energyJ;
            explore_acc[c].insts += d.instructions;
            explore_acc[c].misses += d.l2Misses;
            step_misses += d.l2Misses;
            step_accesses += d.l2Accesses;
            if (cfg.contention)
                last_miss_rate[c] = d.l2Misses / dt;
            if (d.finished) {
                res.finished[c] = true;
                finished_now = true;
                double idle_us = dt - d.usedUs;
                step_energy += stallW[mode_v[c]] * idle_us * 1e-6;
            }
            res.coreEnergyJ[c] += step_energy;
            res.coreInstructions[c] += d.instructions;
            explore_acc[c].energyJ += step_energy;
            last_step_power[c] = step_energy / (dt * 1e-6);
            if (record_timeline)
                step_bips[c] = bipsOf(d.instructions, dt);
        }

        double unc_e = uncore.energy(
            dt * 1e-6,
            static_cast<std::uint64_t>(step_accesses + 0.5),
            static_cast<std::uint64_t>(step_misses + 0.5));
        res.uncoreEnergyJ += unc_e;

        if (cfg.trackThermal)
            thermal.step(last_step_power, dt);

        if (record_timeline) {
            Watts step_core_power = 0.0;
            for (Watts w : last_step_power)
                step_core_power += w;
            res.timeline.append(
                step_t_us, last_step_power, step_bips, mode_v,
                step_core_power,
                budget ? budget->at(step_t_us) * reference_power_w
                       : 0.0,
                cfg.trackThermal ? thermal.hottestC() : 0.0);
        }

        t += dt;
        explore_elapsed += dt;
        step++;

        if (finished_now)
            break;
    }

    res.endUs = t;
    if (cfg.trackThermal)
        res.peakTempC = thermal.peakC();
    if (mgr) {
        res.managerStats = mgr->stats();
        res.predPowerError = mgr->predictor().meanPowerError();
        res.predBipsError = mgr->predictor().meanBipsError();
    }
    return res;
}

} // namespace gpm
