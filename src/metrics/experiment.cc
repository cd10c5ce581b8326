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
        std::vector<PowerMode> all_turbo(combo.size(), modes::Turbo);
        cc->turboRef = cc->sim->runStatic(all_turbo, false);
        cc->refW = cc->turboRef.avgCorePowerW();
    });
    return *cc;
}

const HeldModeMemo *
ExperimentRunner::memoFor(ComboCache &cc)
{
    // The load keeps a warm combination's runs from all writing the
    // flag's cache line.
    if (!cc.ran.load() && !cc.ran.exchange(true))
        return nullptr;
    std::call_once(cc.memoInit,
                   [&] { cc.memo = cc.sim->heldModeMemo(); });
    return &cc.memo;
}

const SimResult &
ExperimentRunner::reference(const std::vector<std::string> &combo)
{
    return cacheFor(combo).turboRef;
}

Watts
ExperimentRunner::referencePowerW(
    const std::vector<std::string> &combo)
{
    return cacheFor(combo).refW;
}

PolicyEval
ExperimentRunner::evaluate(const std::vector<std::string> &combo,
                           const std::string &policy,
                           double budget_frac)
{
    ComboCache &cc = cacheFor(combo);
    GlobalManager mgr(dvfs, makePolicy(policy), cfg.exploreUs,
                      idlePowerW);
    BudgetSchedule budget(budget_frac);
    SimResult run =
        cc.sim->run(mgr, budget, cc.refW, false, memoFor(cc));

    PolicyEval ev;
    ev.policy = policy;
    ev.budgetFrac = budget_frac;
    ev.metrics =
        computeMetrics(run, cc.turboRef, budget_frac * cc.refW);
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

    Watts core_budget = budget_frac * cc.refW;
    std::vector<PowerMode> assign =
        planStaticAssignment(cc.staticStats, core_budget, fit);

    SimResult run = cc.sim->runStatic(assign, false, memoFor(cc));
    PolicyEval ev;
    ev.policy = "Static";
    ev.budgetFrac = budget_frac;
    ev.metrics =
        computeMetrics(run, cc.turboRef, budget_frac * cc.refW);
    return ev;
}

std::vector<PolicyEval>
ExperimentRunner::curve(const std::vector<std::string> &combo,
                        const std::string &policy,
                        const std::vector<double> &budget_fracs)
{
    std::vector<PolicyEval> evs;
    evs.reserve(budget_fracs.size());
    for (double b : budget_fracs) {
        if (policy == "Static")
            evs.push_back(evaluateStatic(combo, b));
        else
            evs.push_back(evaluate(combo, policy, b));
    }
    return evs;
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
    if (auto err = validate(spec))
        return Expected<std::vector<PolicyEval>,
                        SweepError>::failure(std::move(*err));
    auto out = sweep(spec, concurrency, cancel);
    if (out.size() < spec.points.size()) {
        SweepError err;
        err.pointIndex = out.size();
        err.message = "sweep cancelled after " +
            std::to_string(out.size()) + " of " +
            std::to_string(spec.points.size()) + " points";
        err.cancelled = true;
        return Expected<std::vector<PolicyEval>,
                        SweepError>::failure(std::move(err));
    }
    return out;
}

std::vector<PolicyEval>
ExperimentRunner::sweep(const SweepSpec &spec,
                        std::size_t concurrency,
                        const CancelToken *cancel)
{
    std::vector<PolicyEval> out(spec.points.size());
    if (spec.points.empty())
        return out;

    // Warm the per-combo caches first, in parallel over *unique*
    // combos: otherwise every thread whose point shares the first
    // combo would pile up on one call_once while other combos wait.
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
        cacheFor(unique_combos[i]->combo);
    });

    // The cancellation checkpoint sits between points: a token that
    // fires mid-sweep stops further points from starting but never
    // interrupts one in flight, so every computed point is still
    // bitwise-identical to its serial evaluation.
    std::atomic<bool> skipped{false};
    parallelFor(concurrency, spec.points.size(), [&](std::size_t i) {
        if (cancel && cancel->cancelled()) {
            skipped.store(true, std::memory_order_relaxed);
            return;
        }
        const SweepPoint &p = spec.points[i];
        out[i] = p.policy == "Static"
            ? evaluateStatic(p.combo, p.budgetFrac, p.staticFit)
            : evaluate(p.combo, p.policy, p.budgetFrac);
    });
    if (skipped.load(std::memory_order_relaxed)) {
        // Count the completed prefix so trySweep can report how far
        // the sweep got, then truncate: a cancelled sweep returns
        // fewer results than points, never silent default entries.
        std::size_t done = 0;
        for (const auto &ev : out)
            if (!ev.policy.empty())
                done++;
        out.resize(std::min(done, out.size()));
    }
    return out;
}

SimResult
ExperimentRunner::timeline(const std::vector<std::string> &combo,
                           const std::string &policy,
                           const BudgetSchedule &budget)
{
    ComboCache &cc = cacheFor(combo);
    GlobalManager mgr(dvfs, makePolicy(policy), cfg.exploreUs,
                      idlePowerW);
    return cc.sim->run(mgr, budget, cc.refW, true, memoFor(cc));
}

} // namespace gpm
