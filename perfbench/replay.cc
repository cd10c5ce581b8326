/**
 * @file
 * In-process replay of a workload's request stream against gpm's own
 * modules, for two jobs:
 *
 *  --verify FILE   recompute each "key digest" line of FILE through
 *                  the sweep engine (ExperimentRunner::trySweep +
 *                  serializeResults) and count payloads whose digest
 *                  differs from the listed one (what gpmd served, or a
 *                  golden file).
 *  --trace N       replay requests 0..N-1 (at most kTraceSeconds of
 *                  work) through each module in turn, with a span
 *                  around every call: json parse, scenario parse and
 *                  hash, profile fetch, the
 *                  all-Turbo reference run, the simulator's run loop,
 *                  each policy decision, metrics, serialization and
 *                  the disk tier's write-through. A span's self time
 *                  excludes its children (the decisions inside a sim
 *                  run). The same requests then go through an
 *                  in-process ScenarioService, whose per-request time
 *                  less the module spans is the service's own share
 *                  (queueing, thread hand-off, sweep pool).
 *
 * The last stdout line is a JSON object.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/global_manager.hh"
#include "core/policies.hh"
#include "metrics/experiment.hh"
#include "metrics/metrics.hh"
#include "power/power_model.hh"
#include "service/disk_cache.hh"
#include "service/scenario.hh"
#include "service/service.hh"
#include "sim/cmp_sim.hh"
#include "trace/phase_profile.hh"
#include "workload.hh"

namespace
{

using Clock = std::chrono::steady_clock;

/** Replay work a traced run spends at most, so slow workloads stay
 *  inside the run's time limit [s]. */
constexpr double kTraceSeconds = 4.0;

double
usSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "replay: %s\n", msg.c_str());
    std::exit(2);
}

/** Policy decisions seen by TimedPolicy. */
struct Decisions
{
    double us = 0.0;
    double maxUs = 0.0;
    /** Decisions slower than the explore interval they decide. */
    std::uint64_t overruns = 0;
};

/** Times every decide() of the policy it wraps. */
class TimedPolicy : public gpm::Policy
{
  public:
    TimedPolicy(std::unique_ptr<gpm::Policy> inner_, Decisions &d_,
                double exploreUs_)
        : inner(std::move(inner_)), d(d_), exploreUs(exploreUs_)
    {
    }
    const char *name() const override { return inner->name(); }
    bool wantsOracle() const override { return inner->wantsOracle(); }
    std::vector<gpm::PowerMode> decide(const gpm::PolicyInput &in) override
    {
        auto t0 = Clock::now();
        auto modes = inner->decide(in);
        double us = usSince(t0);
        d.us += us;
        d.maxUs = std::max(d.maxUs, us);
        if (us > exploreUs)
            d.overruns++;
        return modes;
    }

  private:
    std::unique_ptr<gpm::Policy> inner;
    Decisions &d;
    double exploreUs;
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double scale = 0.0;
    std::string store;
    std::string verifyPath;
    std::size_t traceRequests = 0;
    std::string diskDir;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + k);
        std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--scale")
            a.scale = std::atof(v.c_str());
        else if (k == "--store")
            a.store = v;
        else if (k == "--verify")
            a.verifyPath = v;
        else if (k == "--trace")
            a.traceRequests = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--disk-dir")
            a.diskDir = v;
        else
            die("unknown option " + k);
    }
    if (a.store.empty() || !(a.scale > 0.0))
        die("need --store DIR and a positive --scale");
    if (a.verifyPath.empty() == (a.traceRequests == 0))
        die("need exactly one of --verify FILE and --trace N");
    if (a.traceRequests && a.diskDir.empty())
        die("--trace needs --disk-dir");
    return a;
}

gpm::ScenarioSpec
specOf(const std::string &scenarioJson)
{
    auto v = gpm::json::parse(scenarioJson);
    if (!v.ok())
        die("workload scenario does not parse: " + scenarioJson);
    auto spec = gpm::parseScenario(v.value());
    if (!spec.ok())
        die("workload scenario is invalid: " + spec.error());
    return spec.value();
}

/** The payload gpmd computes for @p spec, by the engine's own path. */
std::string
enginePayload(
    std::map<std::string, std::unique_ptr<gpm::ExperimentRunner>> &runners,
    gpm::ProfileLibrary &lib, const gpm::DvfsTable &dvfs,
    const gpm::ScenarioSpec &spec)
{
    auto &runner = runners[spec.simJson().canonical()];
    if (!runner)
        runner = std::make_unique<gpm::ExperimentRunner>(
            lib, dvfs, spec.simConfig());
    auto swept = runner->trySweep(spec.sweepSpec(), 1);
    if (!swept.ok())
        die("sweep failed: " + swept.error().message);
    return gpm::serializeResults(spec, swept.value());
}

int
verify(const Args &a, const perfbench::Workload &wl,
       gpm::ProfileLibrary &lib, const gpm::DvfsTable &dvfs)
{
    std::ifstream in(a.verifyPath);
    std::map<std::string, std::unique_ptr<gpm::ExperimentRunner>> runners;
    std::uint64_t key = 0, digest = 0, checked = 0, mismatches = 0;
    while (in >> key >> std::hex >> digest >> std::dec) {
        std::string payload =
            enginePayload(runners, lib, dvfs, specOf(wl.scenario(key)));
        if (perfbench::fnv1a(payload.data(), payload.size()) != digest) {
            mismatches++;
            std::fprintf(stderr, "replay: key %llu: the engine's payload "
                                 "differs from the listed digest\n",
                         static_cast<unsigned long long>(key));
        }
        checked++;
    }
    std::printf("{\"checked\":%llu,\"mismatches\":%llu}\n",
                static_cast<unsigned long long>(checked),
                static_cast<unsigned long long>(mismatches));
    return 0;
}

/** A bound simulator plus its all-Turbo reference, per combination
 *  and sim-knob set — what ExperimentRunner caches per combo. */
struct Bound
{
    std::unique_ptr<gpm::CmpSim> sim;
    gpm::SimResult turboRef;
    gpm::Watts refW = 0.0;
};

int
trace(const Args &a, const perfbench::Workload &wl,
      gpm::ProfileLibrary &lib, const gpm::DvfsTable &dvfs)
{
    // Self time per module span, summed over the replayed requests [us].
    double jsonUs = 0, scenarioUs = 0, hashUs = 0, profileUs = 0, referenceUs = 0, simUs = 0, metricsUs = 0,
           serializeUs = 0, diskUs = 0, serviceUs = 0;
    Decisions decisions;
    std::uint64_t mismatches = 0;

    const gpm::Watts idleW =
        gpm::CorePowerModel(gpm::CorePowerParams::classic(), dvfs)
            .stallPower(gpm::modes::Turbo);
    std::map<std::string, Bound> bound;
    gpm::DiskCache disk(a.diskDir, 0);
    std::map<std::string, std::unique_ptr<gpm::ExperimentRunner>> runners;

    std::vector<gpm::ScenarioSpec> specs;
    std::vector<std::string> payloads;
    auto started = Clock::now();
    for (std::uint64_t i = 0; i < a.traceRequests; i++) {
        if (usSince(started) > kTraceSeconds * 1e6)
            break;
        std::string line = "{\"id\":" + std::to_string(i) +
            ",\"verb\":\"submit\",\"scenario\":" +
            wl.scenario(i) + "}";

        auto t0 = Clock::now();
        auto req = gpm::json::parse(line);
        jsonUs += usSince(t0);
        if (!req.ok() || !req.value().find("scenario"))
            die("request does not parse: " + line);

        t0 = Clock::now();
        auto parsed = gpm::parseScenario(*req.value().find("scenario"));
        scenarioUs += usSince(t0);
        if (!parsed.ok())
            die("scenario is invalid: " + parsed.error());
        const gpm::ScenarioSpec &spec = parsed.value();

        t0 = Clock::now();
        std::uint64_t hash = spec.hash();
        hashUs += usSince(t0);

        specs.push_back(spec);

        gpm::SimConfig cfg = spec.simConfig();
        std::string comboKey = spec.simJson().canonical();
        for (const auto &n : spec.combo)
            comboKey += "|" + n;

        t0 = Clock::now();
        std::vector<const gpm::WorkloadProfile *> profiles;
        for (const auto &n : spec.combo)
            profiles.push_back(&lib.get(n));
        profileUs += usSince(t0);

        Bound &b = bound[comboKey];
        if (!b.sim) {
            t0 = Clock::now();
            b.sim = std::make_unique<gpm::CmpSim>(profiles, dvfs, cfg);
            std::vector<gpm::PowerMode> turbo(spec.combo.size(),
                                              gpm::modes::Turbo);
            b.turboRef = b.sim->runStatic(turbo, false);
            b.refW = b.turboRef.avgCorePowerW();
            referenceUs += usSince(t0);
        }

        std::vector<gpm::PolicyEval> evals;
        for (double frac : spec.budgets) {
            double decideBefore = decisions.us;
            t0 = Clock::now();
            gpm::GlobalManager mgr(
                dvfs,
                std::make_unique<TimedPolicy>(gpm::makePolicy(spec.policy),
                                              decisions, cfg.exploreUs),
                cfg.exploreUs, idleW);
            gpm::SimResult run = b.sim->run(mgr, gpm::BudgetSchedule(frac),
                                            b.refW, false);
            simUs += usSince(t0) - (decisions.us - decideBefore);

            t0 = Clock::now();
            gpm::PolicyEval ev;
            ev.policy = spec.policy;
            ev.budgetFrac = frac;
            ev.metrics = gpm::computeMetrics(run, b.turboRef, frac * b.refW);
            ev.predPowerError = run.predPowerError;
            ev.predBipsError = run.predBipsError;
            ev.managerStats = run.managerStats;
            metricsUs += usSince(t0);
            evals.push_back(std::move(ev));
        }

        t0 = Clock::now();
        std::string payload = gpm::serializeResults(spec, evals);
        serializeUs += usSince(t0);

        t0 = Clock::now();
        disk.put(hash, payload);
        diskUs += usSince(t0);

        // The module-by-module path must compute what the engine does.
        if (payloads.size() < 8 &&
            payload != enginePayload(runners, lib, dvfs, spec))
            mismatches++;
        payloads.push_back(std::move(payload));
    }

    // The same requests through the service, untraced inside.
    {
        gpm::ScenarioService service(lib, dvfs);
        for (std::size_t i = 0; i < specs.size(); i++) {
            auto t0 = Clock::now();
            auto r = service.submit(specs[i]);
            serviceUs += usSince(t0);
            if (!r.ok || r.payload != payloads[i])
                mismatches++;
        }
    }

    double n = static_cast<double>(specs.size());
    auto perReq = [n](double us) { return n > 0 ? us / n : 0.0; };
    double modulesUs = jsonUs + scenarioUs + hashUs + profileUs +
        referenceUs + simUs + decisions.us + metricsUs + serializeUs + diskUs;
    std::printf(
        "{\"requests\":%zu,\"mismatches\":%llu,"
        "\"json_parse_us\":%.17g,\"scenario_parse_us\":%.17g,"
        "\"scenario_hash_us\":%.17g,"
        "\"profile_fetch_us\":%.17g,\"sim_reference_us\":%.17g,"
        "\"sim_run_us\":%.17g,\"policy_decide_us\":%.17g,"
        "\"policy_decide_max_us\":%.17g,"
        "\"policy_overruns\":%llu,\"metrics_us\":%.17g,"
        "\"serialize_us\":%.17g,\"disk_put_us\":%.17g,"
        "\"modules_us\":%.17g,\"service_submit_us\":%.17g}\n",
        specs.size(), static_cast<unsigned long long>(mismatches),
        perReq(jsonUs), perReq(scenarioUs), perReq(hashUs),
        perReq(profileUs), perReq(referenceUs),
        perReq(simUs), perReq(decisions.us), decisions.maxUs,
        static_cast<unsigned long long>(decisions.overruns),
        perReq(metricsUs), perReq(serializeUs), perReq(diskUs),
        perReq(modulesUs), perReq(serviceUs));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    perfbench::Workload wl;
    if (!wl.init(a.workload, a.seed))
        die("unknown --workload " + a.workload);
    gpm::DvfsTable dvfs = gpm::DvfsTable::classic3();
    gpm::ProfileLibrary lib(dvfs, a.scale);
    lib.attachStore(a.store);
    return a.verifyPath.empty() ? trace(a, wl, lib, dvfs)
                                : verify(a, wl, lib, dvfs);
}
