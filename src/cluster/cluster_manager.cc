#include "cluster/cluster_manager.hh"

#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/policies.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace gpm
{

namespace
{

/** Dedup key: chips with identical workloads and phase geometry
 *  share one reference-power simulation. The shifts go in as their
 *  exact bits: chips whose shifts differ in any bit simulate
 *  differently. */
std::string
chipKey(const ChipSpec &chip)
{
    std::string key;
    for (const auto &w : chip.combo) {
        key += w;
        key += ',';
    }
    for (double shift : {chip.phaseShiftStride, chip.phaseOffset}) {
        key += '|';
        key.append(reinterpret_cast<const char *>(&shift),
                   sizeof shift);
    }
    return key;
}

double
frac(double f)
{
    return f - std::floor(f);
}

} // namespace

ClusterManager::ClusterManager(ProfileLibrary &lib,
                               const DvfsTable &dvfs,
                               const SimConfig &base, ClusterSpec spec)
    : lib(lib), dvfs(dvfs), base(base), spec_(std::move(spec))
{
    GPM_ASSERT(!spec_.chips.empty());
    GPM_ASSERT(spec_.epochs >= 1);
    // Per-chip shifts come from the ChipSpecs; a base shift would
    // silently double-apply under the per-chip config.
    GPM_ASSERT(base.phaseShiftStride == 0.0 &&
               base.phaseShiftBase == 0.0);
}

SimConfig
ClusterManager::chipConfig(const ChipSpec &chip) const
{
    SimConfig cfg = base;
    cfg.phaseShiftStride = chip.phaseShiftStride;
    cfg.phaseShiftBase = chip.phaseOffset;
    return cfg;
}

Expected<ClusterRunResult, ClusterError>
ClusterManager::run(double budget_frac, std::size_t concurrency,
                    const CancelToken *cancel)
{
    const std::size_t m = spec_.chips.size();
    const unsigned epochs = spec_.epochs;
    const std::size_t modes = dvfs.numModes();

    auto cancelledErr = [] {
        ClusterError e;
        e.message = "cluster run cancelled";
        e.cancelled = true;
        return e;
    };

    // --- Profiles: resolve serially through the library (get()
    // handles build-once-per-workload internally; the suite is tiny
    // next to the simulations that follow).
    std::vector<std::vector<const WorkloadProfile *>> profs(m);
    for (std::size_t i = 0; i < m; i++) {
        profs[i].reserve(spec_.chips[i].combo.size());
        for (const auto &w : spec_.chips[i].combo)
            profs[i].push_back(&lib.get(w));
    }
    if (cancel && cancel->cancelled())
        return Expected<ClusterRunResult, ClusterError>::failure(
            cancelledErr());

    // --- Simulators and reference powers, in one fan over the pool:
    // every chip builds its CmpSim (which peeks each core's first
    // explore interval), and the first of each set of identical
    // chips runs the reference. Containment: a throwing reference
    // sim surfaces as a per-chip error, not a pool rethrow.
    std::vector<std::unique_ptr<CmpSim>> sims(m);
    std::vector<Watts> refW(m, 0.0);
    std::vector<std::string> errs(m);
    {
        std::map<std::string, std::size_t> reps;
        std::vector<std::size_t> owner(m); // chip -> representative
        for (std::size_t i = 0; i < m; i++)
            owner[i] =
                reps.emplace(chipKey(spec_.chips[i]), i).first->second;
        parallelFor(concurrency, m, [&](std::size_t i) {
            try {
                sims[i] = std::make_unique<CmpSim>(
                    profs[i], dvfs, chipConfig(spec_.chips[i]));
                if (owner[i] == i)
                    refW[i] = sims[i]->referencePowerW();
            } catch (const std::exception &e) {
                errs[i] = e.what();
            } catch (...) {
                errs[i] = "unknown exception";
            }
        });
        for (std::size_t i = 0; i < m; i++) {
            if (!errs[owner[i]].empty() && errs[i].empty())
                errs[i] = errs[owner[i]];
            refW[i] = refW[owner[i]];
        }
        for (std::size_t i = 0; i < m; i++)
            if (!errs[i].empty()) {
                ClusterError e;
                e.chipIndex = i;
                e.message = "reference sim failed: " + errs[i];
                return Expected<ClusterRunResult,
                                ClusterError>::failure(e);
            }
    }

    Watts ref_total = 0.0;
    for (std::size_t i = 0; i < m; i++)
        ref_total += refW[i];
    const Watts facility_w = budget_frac * ref_total;

    if (cancel && cancel->cancelled())
        return Expected<ClusterRunResult, ClusterError>::failure(
            cancelledErr());

    // --- Planning: predict every chip's frontier at every epoch
    // start. Cursors advance at Turbo rate between epochs — a
    // deterministic progress model independent of the awards, so
    // the whole plan is computed up front and the per-chip planners
    // parallelize freely.
    std::vector<std::vector<ChipFrontier>> fr(
        epochs, std::vector<ChipFrontier>(m));
    parallelFor(concurrency, m, [&](std::size_t i) {
        const ChipSpec &chip = spec_.chips[i];
        const std::size_t n = profs[i].size();
        std::vector<ProfileCursor> cursors;
        cursors.reserve(n);
        for (std::size_t c = 0; c < n; c++) {
            cursors.emplace_back(*profs[i][c]);
            double f = chip.phaseOffset +
                static_cast<double>(c) * chip.phaseShiftStride;
            if (f > 0.0)
                cursors[c].seekFraction(frac(f));
        }
        for (unsigned e = 0; e < epochs; e++) {
            // Deadline-aware planning: a cancelled run abandons the
            // remaining epochs on every chip instead of finishing a
            // plan nobody will wait for (the post-loop check turns
            // the partial plan into a structured cancellation).
            if (cancel && cancel->cancelled())
                return;
            ModeMatrix mat(n, modes);
            for (std::size_t c = 0; c < n; c++) {
                for (std::size_t md = 0; md < modes; md++) {
                    auto pm = static_cast<PowerMode>(md);
                    auto d = cursors[c].peek(base.exploreUs, pm);
                    if (d.usedUs <= 0.0)
                        continue; // finished: zero row
                    mat.powerW(c, pm) =
                        d.energyJ / (d.usedUs * 1e-6);
                    mat.bips(c, pm) =
                        d.instructions / (d.usedUs * 1000.0);
                }
            }
            fr[e][i] = quantizeFrontier(collapseChipFrontier(mat),
                                        spec_.levels);
            for (std::size_t c = 0; c < n; c++)
                cursors[c].advance(spec_.epochUs, modes::Turbo);
        }
    });
    if (cancel && cancel->cancelled())
        return Expected<ClusterRunResult, ClusterError>::failure(
            cancelledErr());

    // --- Per-epoch facility arbitration (serial: M x levels is
    // tiny) and the resulting per-chip budget schedules.
    ClusterRunResult out;
    out.facilityBudgetW = facility_w;
    out.epochs.reserve(epochs);
    std::vector<std::vector<std::pair<MicroSec, double>>> steps(m);
    for (std::size_t i = 0; i < m; i++)
        steps[i].reserve(epochs);
    for (unsigned e = 0; e < epochs; e++) {
        ClusterAllocation a =
            allocateFacilityBudget(fr[e], facility_w, spec_.policy);
        EpochTrace t;
        t.feasible = a.feasible;
        t.predictedBips = a.predictedBips;
        t.awardsW = a.awardsW;
        out.epochs.push_back(std::move(t));
        for (std::size_t i = 0; i < m; i++) {
            // CmpSim budgets are fractions of the chip reference.
            double f = refW[i] > 0.0
                ? out.epochs.back().awardsW[i] / refW[i]
                : 0.0;
            steps[i].emplace_back(
                static_cast<MicroSec>(e) * spec_.epochUs, f);
        }
    }

    if (cancel && cancel->cancelled())
        return Expected<ClusterRunResult, ClusterError>::failure(
            cancelledErr());

    // --- Execution: full per-chip simulations under the awarded
    // schedules, fanned over the pool into pre-sized slots. A chip
    // that throws is contained to its slot and reported as a
    // structured error after the fan-in.
    std::vector<SimResult> results(m);
    std::vector<char> done(m, 0);
    parallelFor(concurrency, m, [&](std::size_t i) {
        try {
            if (cancel && cancel->cancelled())
                return;
            if (fault::armed() &&
                fault::fire(fault::Point::ChipSimThrow))
                throw std::runtime_error(
                    "injected chip-sim-throw fault");
            GlobalManager mgr(dvfs,
                              makePolicy(spec_.chips[i].policy),
                              base.exploreUs);
            BudgetSchedule sched(steps[i]);
            results[i] = sims[i]->run(mgr, sched, refW[i]);
            done[i] = 1;
        } catch (const std::exception &e) {
            errs[i] = e.what();
        } catch (...) {
            errs[i] = "unknown exception";
        }
    });
    for (std::size_t i = 0; i < m; i++)
        if (!errs[i].empty()) {
            ClusterError e;
            e.chipIndex = i;
            e.message = "chip sim failed: " + errs[i];
            return Expected<ClusterRunResult, ClusterError>::failure(
                e);
        }
    if (cancel && cancel->cancelled())
        return Expected<ClusterRunResult, ClusterError>::failure(
            cancelledErr());
    for (std::size_t i = 0; i < m; i++)
        GPM_ASSERT(done[i]);

    // --- Assembly, in spec order.
    out.chips.reserve(m);
    for (std::size_t i = 0; i < m; i++) {
        ChipOutcome c;
        c.bips = results[i].chipBips();
        c.avgCorePowerW = results[i].avgCorePowerW();
        Watts award_sum = 0.0;
        for (const auto &t : out.epochs)
            award_sum += t.awardsW[i];
        c.awardedMeanW = award_sum / static_cast<double>(epochs);
        c.refPowerW = refW[i];
        c.managerStats = results[i].managerStats;
        out.clusterBips += c.bips;
        out.clusterPowerW += c.avgCorePowerW;
        out.chips.push_back(std::move(c));
    }
    out.budgetUtilization =
        facility_w > 0.0 ? out.clusterPowerW / facility_w : 0.0;
    return out;
}

} // namespace gpm
