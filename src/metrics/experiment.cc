#include "experiment.hh"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "core/policies.hh"
#include "core/static_planner.hh"
#include "trace/workload.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace gpm
{

void
SweepSpec::add(std::vector<std::string> combo, std::string policy,
               double budget_frac, StaticFit fit)
{
    points.push_back(
        {std::move(combo), std::move(policy), budget_frac, fit});
}

void
SweepSpec::addGrid(const std::vector<std::vector<std::string>> &combos,
                   const std::vector<std::string> &policies,
                   const std::vector<double> &budget_fracs)
{
    points.reserve(points.size() +
                   combos.size() * policies.size() *
                       budget_fracs.size());
    for (const auto &c : combos)
        for (const auto &p : policies)
            for (double b : budget_fracs)
                add(c, p, b);
}

ExperimentRunner::ExperimentRunner(ProfileLibrary &lib_,
                                   const DvfsTable &dvfs_,
                                   SimConfig cfg_)
    : lib(lib_), dvfs(dvfs_), cfg(cfg_)
{
    CorePowerModel pm(CorePowerParams::classic(), dvfs);
    idlePowerW = pm.stallPower(modes::Turbo);
}

std::string
ExperimentRunner::keyOf(const std::vector<std::string> &combo)
{
    std::string key;
    for (const auto &n : combo) {
        key += n;
        key += '|';
    }
    return key;
}

std::vector<const WorkloadProfile *>
ExperimentRunner::profilesFor(const std::vector<std::string> &combo)
{
    GPM_ASSERT(!combo.empty());
    std::vector<const WorkloadProfile *> ps;
    ps.reserve(combo.size());
    for (const auto &name : combo)
        ps.push_back(&lib.get(name));
    return ps;
}

ExperimentRunner::ComboCache &
ExperimentRunner::cacheFor(const std::vector<std::string> &combo)
{
    std::string key = keyOf(combo);
    ComboCache *cc = nullptr;
    {
        std::shared_lock<std::shared_mutex> lock(cacheMtx);
        auto it = cache.find(key);
        if (it != cache.end())
            cc = it->second.get();
    }
    if (!cc) {
        std::unique_lock<std::shared_mutex> lock(cacheMtx);
        auto &slot = cache[key];
        if (!slot)
            slot = std::make_unique<ComboCache>();
        cc = slot.get();
    }
    // Build outside the map lock so distinct combos initialize in
    // parallel; threads needing *this* combo wait here.
    std::call_once(cc->init, [&] {
        cc->sim =
            std::make_unique<CmpSim>(profilesFor(combo), dvfs, cfg);
    });
    return *cc;
}

const SimResult &
ExperimentRunner::reference(const std::vector<std::string> &combo)
{
    return cacheFor(combo).sim->reference();
}

Watts
ExperimentRunner::referencePowerW(
    const std::vector<std::string> &combo)
{
    return cacheFor(combo).sim->referencePowerW();
}

PolicyEval
ExperimentRunner::evaluate(const std::vector<std::string> &combo,
                           const std::string &policy,
                           double budget_frac)
{
    CmpSim &sim = *cacheFor(combo).sim;
    const SimResult &ref = sim.reference();
    const Watts ref_w = ref.avgCorePowerW();
    GlobalManager mgr(dvfs, makePolicy(policy), cfg.exploreUs,
                      idlePowerW);
    BudgetSchedule budget(budget_frac);
    SimResult run = sim.run(mgr, budget, ref_w);

    PolicyEval ev;
    ev.policy = policy;
    ev.budgetFrac = budget_frac;
    ev.metrics = computeMetrics(run, ref, budget_frac * ref_w);
    ev.predPowerError = run.predPowerError;
    ev.predBipsError = run.predBipsError;
    ev.managerStats = run.managerStats;
    return ev;
}

PolicyEval
ExperimentRunner::evaluateStatic(
    const std::vector<std::string> &combo, double budget_frac,
    StaticFit fit)
{
    ComboCache &cc = cacheFor(combo);

    // Whole-run "native" stats per core per mode: the optimistic
    // oracle knowledge the paper grants static management.
    std::call_once(cc.staticInit, [&] {
        for (const auto *p : profilesFor(combo)) {
            std::vector<StaticModeStats> row;
            for (std::size_t mi = 0; mi < dvfs.numModes(); mi++) {
                const ModeProfile &mp =
                    p->at(static_cast<PowerMode>(mi));
                row.push_back({mp.avgPowerW(),
                               mp.peakPowerW(cfg.exploreUs),
                               mp.bips()});
            }
            cc.staticStats.push_back(std::move(row));
        }
    });

    const SimResult &ref = cc.sim->reference();
    Watts core_budget = budget_frac * ref.avgCorePowerW();
    std::vector<PowerMode> assign =
        planStaticAssignment(cc.staticStats, core_budget, fit);

    SimResult run = cc.sim->runStatic(assign);
    PolicyEval ev;
    ev.policy = "Static";
    ev.budgetFrac = budget_frac;
    ev.metrics = computeMetrics(run, ref, core_budget);
    return ev;
}

std::optional<SweepError>
ExperimentRunner::validate(const SweepSpec &spec)
{
    for (std::size_t i = 0; i < spec.points.size(); i++) {
        const SweepPoint &p = spec.points[i];
        if (p.combo.empty())
            return SweepError{i, "empty benchmark combination"};
        for (const auto &name : p.combo)
            if (!hasWorkload(name))
                return SweepError{i,
                                  "unknown workload '" + name + "'"};
        if (p.policy != "Static" && !isPolicyName(p.policy))
            return SweepError{
                i, "unknown policy '" + p.policy + "'"};
        if (!std::isfinite(p.budgetFrac) || p.budgetFrac <= 0.0)
            return SweepError{
                i, "budget fraction must be finite and > 0"};
    }
    return std::nullopt;
}

Expected<std::vector<PolicyEval>, SweepError>
ExperimentRunner::trySweep(const SweepSpec &spec,
                           std::size_t concurrency,
                           const CancelToken *cancel)
{
    using Result = Expected<std::vector<PolicyEval>, SweepError>;
    if (auto err = validate(spec))
        return Result::failure(std::move(*err));
    std::vector<PolicyEval> out(spec.points.size());
    if (spec.points.empty())
        return out;

    // Warm the per-combo simulators and references first, in
    // parallel over *unique* combos: otherwise every thread whose
    // point shares the first combo would pile up on one call_once
    // while other combos wait.
    std::vector<const SweepPoint *> unique_combos;
    {
        std::vector<std::string> seen;
        for (const auto &p : spec.points) {
            std::string key = keyOf(p.combo);
            if (std::find(seen.begin(), seen.end(), key) ==
                seen.end()) {
                seen.push_back(std::move(key));
                unique_combos.push_back(&p);
            }
        }
    }
    parallelFor(concurrency, unique_combos.size(), [&](std::size_t i) {
        if (cancel && cancel->cancelled())
            return;
        cacheFor(unique_combos[i]->combo).sim->reference();
    });

    // The cancellation checkpoint sits between points: a token that
    // fires mid-sweep stops further points from starting but never
    // interrupts one in flight, so every computed point is still
    // bitwise-identical to its serial evaluation.
    std::atomic<std::size_t> skipped{0};
    parallelFor(concurrency, spec.points.size(), [&](std::size_t i) {
        if (cancel && cancel->cancelled()) {
            skipped.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        const SweepPoint &p = spec.points[i];
        out[i] = p.policy == "Static"
            ? evaluateStatic(p.combo, p.budgetFrac, p.staticFit)
            : evaluate(p.combo, p.policy, p.budgetFrac);
    });
    if (std::size_t n = skipped.load(std::memory_order_relaxed)) {
        SweepError err;
        err.pointIndex = spec.points.size() - n;
        err.message = "sweep cancelled after " +
            std::to_string(spec.points.size() - n) + " of " +
            std::to_string(spec.points.size()) + " points";
        err.cancelled = true;
        return Result::failure(std::move(err));
    }
    return out;
}

SimResult
ExperimentRunner::timeline(const std::vector<std::string> &combo,
                           const std::string &policy,
                           const BudgetSchedule &budget)
{
    CmpSim &sim = *cacheFor(combo).sim;
    const Watts ref_w = sim.referencePowerW();
    GlobalManager mgr(dvfs, makePolicy(policy), cfg.exploreUs,
                      idlePowerW);
    return sim.run(mgr, budget, ref_w, true);
}

} // namespace gpm
