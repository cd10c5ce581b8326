#include "cmp_sim.hh"

#include <algorithm>
#include <cmath>

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

} // namespace

CmpSim::CmpSim(std::vector<const WorkloadProfile *> profiles,
               const DvfsTable &dvfs_, SimConfig cfg_)
    : profs(std::move(profiles)), dvfs(dvfs_), cfg(cfg_),
      stallW(stallPowers(dvfs_)), uncore()
{
    if (profs.empty())
        fatal("CmpSim requires at least one core");
    for (const auto *p : profs) {
        GPM_ASSERT(p != nullptr);
        GPM_ASSERT(p->modes.size() == dvfs.numModes());
    }
    if (cfg.deltaSimUs <= 0.0 || cfg.exploreUs < cfg.deltaSimUs)
        fatal("CmpSim: need 0 < deltaSimUs <= exploreUs");
}

SimResult
CmpSim::run(GlobalManager &mgr, const BudgetSchedule &budget,
            Watts reference_power_w,
            std::optional<bool> record_timeline)
{
    return runInternal(&mgr, &budget, reference_power_w, {},
                       record_timeline.value_or(cfg.recordTimeline));
}

SimResult
CmpSim::runStatic(const std::vector<PowerMode> &modes,
                  std::optional<bool> record_timeline)
{
    GPM_ASSERT(modes.size() == profs.size());
    return runInternal(nullptr, nullptr, 0.0, modes,
                       record_timeline.value_or(cfg.recordTimeline));
}

Watts
CmpSim::referencePowerW()
{
    // call_once makes the lazy init safe under concurrent sweeps
    // (the old "if (cachedRefW < 0) cachedRefW = ..." was a race).
    std::call_once(refOnce, [this] {
        std::vector<PowerMode> all_turbo(profs.size(), modes::Turbo);
        cachedRefW = runStatic(all_turbo, false).avgCorePowerW();
    });
    return cachedRefW;
}

SimResult
CmpSim::runInternal(GlobalManager *mgr, const BudgetSchedule *budget,
                    Watts reference_power_w,
                    const std::vector<PowerMode> &static_modes,
                    bool record_timeline)
{
    const std::size_t n = profs.size();

    // Every container this run touches is sized here, once. The
    // delta-step loop below performs no heap allocation in steady
    // state: the only allocating operations left are per *explore*
    // interval (the manager's returned mode vector and the optional
    // oracle matrix, at 1/10th the delta rate) and the amortized
    // geometric growth of the flat timeline arrays when recording.
    std::vector<ProfileCursor> cursors;
    cursors.reserve(n);
    for (const auto *p : profs)
        cursors.emplace_back(*p);
    if (cfg.phaseShiftStride > 0.0 || cfg.phaseShiftBase > 0.0) {
        for (std::size_t c = 0; c < n; c++) {
            double f = cfg.phaseShiftBase +
                static_cast<double>(c) * cfg.phaseShiftStride;
            cursors[c].seekFraction(f - std::floor(f));
        }
    }

    std::vector<PowerMode> mode_v =
        mgr ? std::vector<PowerMode>(n, cfg.startMode) : static_modes;

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

    ChipThermalModel thermal(n, cfg.thermal);

    MicroSec t = 0.0;
    MicroSec next_explore = 0.0;
    bool first_decision = true;
    Rng sensor_rng(cfg.sensorNoiseSeed);
    auto noisy = [&](double v) {
        if (cfg.sensorNoise <= 0.0)
            return v;
        return v * std::max(
            0.0, 1.0 + sensor_rng.gaussian(0.0, cfg.sensorNoise));
    };

    auto bips_of = [](double insts, MicroSec us) {
        return us > 0.0 ? insts / (us * 1000.0) : 0.0;
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
                    bips_of(d.instructions, cfg.exploreUs) * tf;
            }
        }
        return om;
    };

    while (t < cfg.maxTimeUs) {
        // ---- Explore boundary: consult the global manager --------
        if (mgr && t + 1e-6 >= next_explore) {
            for (std::size_t c = 0; c < n; c++) {
                CoreSample &s = samples[c];
                s = CoreSample{};
                s.mode = mode_v[c];
                s.active = !res.finished[c];
                if (first_decision) {
                    // Bootstrap from the profiles: the trace-based
                    // tool knows the first interval's behaviour.
                    auto d = cursors[c].peek(cfg.exploreUs, mode_v[c]);
                    if (d.usedUs > 0.0) {
                        s.powerW = d.energyJ / (d.usedUs * 1e-6);
                        s.bips = bips_of(d.instructions, d.usedUs);
                        s.memIntensity = d.l2Misses / d.usedUs;
                    } else {
                        s.active = false;
                        s.powerW = stallW[mode_v[c]];
                    }
                } else {
                    const Acc &a = explore_acc[c];
                    s.powerW = noisy(
                        explore_elapsed > 0.0
                            ? a.energyJ / (explore_elapsed * 1e-6)
                            : 0.0);
                    s.bips =
                        noisy(bips_of(a.insts, explore_elapsed));
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
                samples, core_budget, oracle ? &*oracle : nullptr);

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
                rho += r * cfg.busServiceNs / 1000.0;
            rho = std::min(rho, 0.95);
            double wait_ns =
                cfg.busServiceNs * rho / (1.0 - rho);
            for (std::size_t c = 0; c < n; c++)
                dilation[c] =
                    1.0 + last_miss_rate[c] * wait_ns / 1000.0;
        }

        const MicroSec step_t_us = t;
        double step_misses = 0.0;
        double step_accesses = 0.0;
        bool finished_now = false;

        for (std::size_t c = 0; c < n; c++) {
            double step_energy = 0.0;
            double step_insts = 0.0;
            if (!res.finished[c]) {
                auto d = cursors[c].advance(dt, mode_v[c],
                                            dilation[c]);
                step_energy = d.energyJ;
                step_insts = d.instructions;
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
                    step_energy +=
                        stallW[mode_v[c]] * idle_us * 1e-6;
                }
            } else {
                step_energy = stallW[mode_v[c]] * dt * 1e-6;
                if (cfg.contention)
                    last_miss_rate[c] = 0.0;
            }
            res.coreEnergyJ[c] += step_energy;
            res.coreInstructions[c] += step_insts;
            explore_acc[c].energyJ += step_energy;
            last_step_power[c] = step_energy / (dt * 1e-6);
            if (record_timeline)
                step_bips[c] = bips_of(step_insts, dt);
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

        if (cfg.termination == SimConfig::Termination::FirstDone &&
            finished_now)
            break;
        if (cfg.termination == SimConfig::Termination::AllDone) {
            bool all = true;
            for (bool f : res.finished)
                all = all && f;
            if (all)
                break;
        }
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
