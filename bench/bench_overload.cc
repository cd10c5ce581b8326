/**
 * @file
 * Overload benchmark: goodput and latency of the scenario service
 * under an open-loop offered load of 1x, 2x and 4x its measured
 * capacity, per service configuration, plus a self-asserting chaos
 * phase that arms `disk-read-stall` at 2x capacity and checks the
 * admission-controlled daemon:
 *
 *   - sustains >= 90% of its un-faulted goodput at the same load,
 *   - returns zero internal_error responses,
 *   - opens the disk-cache read breaker under the stalls and closes
 *     it again once the "disk" heals.
 *
 * Cost classes:
 *   mcf,crafty   2-core exact MaxBIPS (the paper's chip)
 *   many256      256-core GreedyTurbo at phase-shift stride 0.1
 *                (perfbench's manycore shape)
 *
 * Phases, per class:
 *   capacity   back-to-back bursts through the single worker for at
 *              least 1 s: completions over wall time; and one
 *              request at a time for at least 0.5 s: the mean
 *              sequential request time
 *   sweep      per configuration and load multiple, 5 runs of 1 s,
 *              each on a fresh service primed with deadline-less
 *              requests. Submit i is due at t0 + i/rate, one pacer
 *              thread per client id (4 ids), so a late pacer
 *              catches up instead of stretching the run. Latency
 *              runs from the time a request was due, and each cell
 *              reports how late the pacers ran. Every request
 *              carries deadlineMs = 8 mean sequential request
 *              times.
 *   chaos      (first class only) the default service (admission
 *              and the ladder on), 2x load, disk-read-stall armed
 *
 * Configurations: off (the busy high-water mark only), admission
 * (plus the fair share and doomed-deadline shedding) and ladder
 * (admission plus the degradation ladder, gpmd's default).
 *
 * Goodput counts ok responses that completed within their deadline;
 * "named" counts those computed with the policy the request named.
 * Each cell prints each column's median and [q1, q3] over its runs;
 * NDJSON records go to BENCH_sweep.json (bench "overload"). Exit 1
 * when a 2x or 4x run offered less than 1.5x the measured capacity,
 * or a chaos assertion fails. Knobs: GPM_BENCH_REQUESTS (priming
 * requests per run and the chaos phase's minimum count, default
 * 24), plus the usual GPM_SCALE / GPM_PROFILE_CACHE_DIR.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <dirent.h>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common.hh"
#include "service/service.hh"
#include "util/fault.hh"

namespace
{

using namespace gpm;
using Clock = std::chrono::steady_clock;

/** One request shape; every request varies only its budget. */
struct CostClass
{
    const char *name;
    std::vector<std::string> combo;
    const char *policy;
    double stride;
};

/** A unique budget per request of this process (odd multiplier mod
 *  2^20 is a bijection), so each one is a cache miss while staying
 *  inside the valid (0, 1] budget range. */
ScenarioSpec
nextScenario(const CostClass &c)
{
    static std::atomic<std::size_t> counter{0};
    std::size_t k = (counter++ * 7919) % (1u << 20);
    ScenarioSpec s;
    s.combo = c.combo;
    s.policy = c.policy;
    s.phaseShiftStride = c.stride;
    s.budgets = {0.60 +
                 0.38 * static_cast<double>(k) / (1u << 20)};
    return s;
}

/** Everything one paced run produces. */
struct RunResult
{
    double wallMs = 0.0;       ///< t0 to the last response
    double offeredPerSec = 0.0; ///< submissions over their span
    std::vector<double> lagMs; ///< submit time - due time, sorted
    std::size_t ok = 0;
    std::size_t good = 0;      ///< ok within the deadline
    std::size_t named = 0;     ///< good, and not degraded
    std::size_t shed = 0;      ///< rejected_overload
    std::size_t deadline = 0;  ///< deadline_exceeded
    std::size_t busy = 0;
    std::size_t internal = 0;
    /** Due time to response, ok responses only, sorted. */
    std::vector<double> latenciesMs;

    double
    perSec(std::size_t count) const
    {
        return wallMs > 0.0
            ? static_cast<double>(count) / (wallMs / 1000.0)
            : 0.0;
    }
};

constexpr std::size_t kClients = 4;

/**
 * Submit @p n unique @p cls scenarios, submit i due at
 * t0 + i / @p perSec (0 = back-to-back), each with @p deadlineMs,
 * one pacer thread per client id; wait for every callback.
 */
RunResult
pacedRun(ScenarioService &svc, const CostClass &cls, std::size_t n,
         double perSec, double deadlineMs)
{
    RunResult res;
    res.latenciesMs.reserve(n);
    std::mutex mtx;
    std::condition_variable cv;
    std::size_t doneCount = 0;
    Clock::time_point lastDone;

    // Per pacer: each submission's lateness, and the last one's time.
    std::vector<std::vector<double>> lags(kClients);
    std::vector<Clock::time_point> lastSent(kClients);
    const Clock::time_point t0 = Clock::now();
    auto pacer = [&](std::size_t client) {
        for (std::size_t i = client; i < n; i += kClients) {
            Clock::time_point due = t0;
            if (perSec > 0.0) {
                due += std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(i) / perSec));
                std::this_thread::sleep_until(due);
            }
            ScenarioSpec spec = nextScenario(cls);
            spec.deadlineMs = deadlineMs;
            lastSent[client] = Clock::now();
            lags[client].push_back(
                std::chrono::duration<double, std::milli>(
                    lastSent[client] - due)
                    .count());
            svc.submitAsync(
                spec,
                [&, due](ScenarioService::Response &&r) {
                    auto now = Clock::now();
                    double ms =
                        std::chrono::duration<double, std::milli>(
                            now - due)
                            .count();
                    std::lock_guard<std::mutex> lock(mtx);
                    if (r.ok) {
                        res.ok++;
                        res.latenciesMs.push_back(ms);
                        if (deadlineMs <= 0.0 || ms <= deadlineMs) {
                            res.good++;
                            if (r.degradedTo.empty())
                                res.named++;
                        }
                    } else if (r.errorCode == "rejected_overload") {
                        res.shed++;
                    } else if (r.errorCode == "deadline_exceeded") {
                        res.deadline++;
                    } else if (r.errorCode == "busy") {
                        res.busy++;
                    } else {
                        res.internal++;
                    }
                    doneCount++;
                    lastDone = now;
                    cv.notify_all();
                },
                1 + client);
        }
    };
    std::vector<std::thread> pacers;
    for (std::size_t c = 0; c < std::min(kClients, n); c++)
        pacers.emplace_back(pacer, c);
    for (auto &t : pacers)
        t.join();
    {
        std::unique_lock<std::mutex> lock(mtx);
        cv.wait(lock, [&] { return doneCount == n; });
        res.wallMs =
            std::chrono::duration<double, std::milli>(lastDone - t0)
                .count();
    }
    // The span the submissions took, counting the last one's own
    // interval: n / span equals perSec when every pacer kept up.
    double spanSec =
        std::chrono::duration<double>(
            *std::max_element(lastSent.begin(), lastSent.end()) - t0)
            .count() +
        (perSec > 0.0 ? 1.0 / perSec : 0.0);
    res.offeredPerSec =
        spanSec > 0.0 ? static_cast<double>(n) / spanSec : 0.0;
    std::sort(res.latenciesMs.begin(), res.latenciesMs.end());
    for (const auto &l : lags)
        res.lagMs.insert(res.lagMs.end(), l.begin(), l.end());
    std::sort(res.lagMs.begin(), res.lagMs.end());
    return res;
}

/** Median and quartiles of one column over a cell's runs. */
struct Spread
{
    double q1, median, q3;
};

Spread
spread(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return {bench::percentile(v, 0.25), bench::percentile(v, 0.5),
            bench::percentile(v, 0.75)};
}

/** One cell (a class, a configuration and a load multiple): its
 *  columns, one sample per run. */
struct Cell
{
    static constexpr const char *names[] = {
        "offered_per_sec", "pacer_lag_p99_ms", "goodput_per_sec",
        "named_per_sec",   "p50_ms",           "p99_ms",
        "shed",            "deadline",         "busy"};
    std::vector<double> cols[std::size(names)];

    void
    add(const RunResult &r)
    {
        const double v[] = {r.offeredPerSec,
                            bench::percentile(r.lagMs, 0.99),
                            r.perSec(r.good),
                            r.perSec(r.named),
                            bench::percentile(r.latenciesMs, 0.5),
                            bench::percentile(r.latenciesMs, 0.99),
                            static_cast<double>(r.shed),
                            static_cast<double>(r.deadline),
                            static_cast<double>(r.busy)};
        for (std::size_t i = 0; i < std::size(names); i++)
            cols[i].push_back(v[i]);
    }
};

void
report(const CostClass &cls, const char *mode, double mult,
       double capacityPerSec, const Cell &c)
{
    std::printf("%s, %s, %.0fx:\n", cls.name, mode, mult);
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{ \"bench\": \"overload\", \"phase\": \"sweep\", "
                  "\"class\": \"%s\", \"mode\": \"%s\", "
                  "\"load_mult\": %.0f, \"runs\": %zu, "
                  "\"host_cores\": %u, \"scale\": %g, "
                  "\"capacity_per_sec\": %.1f",
                  cls.name, mode, mult, c.cols[0].size(),
                  std::thread::hardware_concurrency(),
                  bench::scaleFromEnv(), capacityPerSec);
    std::string rec = buf;
    for (std::size_t i = 0; i < std::size(Cell::names); i++) {
        Spread s = spread(c.cols[i]);
        std::printf("    %-18s %.6g [%.6g, %.6g]\n", Cell::names[i],
                    s.median, s.q1, s.q3);
        std::snprintf(buf, sizeof(buf),
                      ", \"%s\": {\"median\": %.6g, \"q1\": %.6g, "
                      "\"q3\": %.6g}",
                      Cell::names[i], s.median, s.q1, s.q3);
        rec += buf;
    }
    rec += " }";
    bench::appendBenchLine(std::move(rec));
}

std::string
makeCacheDir()
{
    char tmpl[] = "/tmp/gpm_bench_overload_XXXXXX";
    if (!::mkdtemp(tmpl))
        fatal("mkdtemp failed");
    return tmpl;
}

void
removeTree(const std::string &dir)
{
    if (DIR *d = ::opendir(dir.c_str())) {
        while (const dirent *e = ::readdir(d)) {
            std::string name = e->d_name;
            if (name != "." && name != "..")
                ::unlink((dir + "/" + name).c_str());
        }
        ::closedir(d);
    }
    ::rmdir(dir.c_str());
}

ServiceOptions
serviceOpts()
{
    ServiceOptions opts;
    opts.workers = 1; // capacity == 1/meanServiceTime, by design
    opts.queueCapacity = 48;
    opts.sweepConcurrency = 1;
    opts.cacheCapacity = 256;
    return opts;
}

/** A service configuration under test. */
struct Mode
{
    const char *name;
    bool admission;
    bool ladder;
};

/** What one service with a single worker sustains for a class. */
struct Capacity
{
    /** Completions per second of back-to-back bursts, over at least
     *  1 s: what the offered loads multiply. */
    double perSec;
    /** Mean latency of one request at a time over at least 0.5 s:
     *  the whole submit-to-callback path, what deadlines scale. */
    double sequentialMs;
};

Capacity
measureCapacity(bench::Env &env, const CostClass &cls,
                std::size_t prime)
{
    // Without the ladder, so the capacity is the named policy's.
    ServiceOptions opts = serviceOpts();
    opts.degradeLadder = false;
    ScenarioService svc(env.lib, env.dvfs, opts);
    pacedRun(svc, cls, prime, 0.0, 0.0);
    std::size_t seq = 0;
    bench::WallTimer seqWall;
    while (seq < prime || seqWall.ms() < 500.0) {
        if (!svc.submit(nextScenario(cls)).ok)
            fatal("%s: a sequential request failed", cls.name);
        seq++;
    }
    double seqMs = seqWall.ms() / static_cast<double>(seq);
    std::size_t ok = 0;
    bench::WallTimer wall;
    while (wall.ms() < 1000.0)
        ok += pacedRun(svc, cls, 40, 0.0, 0.0).ok;
    double ms = wall.ms();
    if (ok == 0)
        fatal("%s: capacity phase produced no completions", cls.name);
    return {static_cast<double>(ok) / (ms / 1000.0), seqMs};
}

/** The chaos phase; returns the number of failed assertions. */
int
chaosPhase(bench::Env &env, const CostClass &cls,
           double capacityPerSec, std::size_t n)
{
    double meanMs = 1000.0 / capacityPerSec;
    // Disk reads stall-and-fail under 2x load; the read breaker
    // must collapse the service to memory-only serving, goodput
    // must hold against an un-faulted run at the SAME offered load,
    // and nothing may surface as internal_error. The request count
    // scales with the measured service time so the fixed
    // breaker-opening overhead (a handful of 1 ms stalls) amortizes
    // at any GPM_SCALE.
    std::string cacheDir = makeCacheDir();
    int rc = 0;
    {
        std::size_t chaosN = std::clamp<std::size_t>(
            static_cast<std::size_t>(1500.0 / meanMs),
            std::max<std::size_t>(2 * n, 48), 6000);
        ServiceOptions chaosOpts = serviceOpts();
        chaosOpts.cacheDir = cacheDir;
        chaosOpts.resultBreaker.window = 8;
        chaosOpts.resultBreaker.minSamples = 4;
        // Long cooldown: the breaker stays open for the bulk of
        // the faulted run instead of burning a stall on a doomed
        // probe every few hundred milliseconds.
        chaosOpts.resultBreaker.cooldownMs = 1000.0;
        ScenarioService svc(env.lib, env.dvfs, chaosOpts);

        // Un-faulted reference at the same 2x offered load (no
        // deadlines: pure sustained throughput, both runs shed and
        // queue identically).
        RunResult ref =
            pacedRun(svc, cls, chaosN, capacityPerSec * 2.0, 0.0);
        if (fault::arm("disk-read-stall:1:1,seed:42"))
            fatal("fault spec rejected");
        RunResult chaos =
            pacedRun(svc, cls, chaosN, capacityPerSec * 2.0, 0.0);
        fault::disarm();

        ServiceStats st = svc.stats();
        double ratio = ref.perSec(ref.good) > 0.0
            ? chaos.perSec(chaos.good) / ref.perSec(ref.good)
            : 0.0;
        std::printf("chaos: %zu requests at 2x: goodput %.1f/s "
                    "no-fault, %.1f/s faulted (ratio %.2f), "
                    "breaker opens %llu, state %s\n",
                    chaosN, ref.perSec(ref.good),
                    chaos.perSec(chaos.good), ratio,
                    static_cast<unsigned long long>(
                        st.diskBreakerOpens),
                    st.diskBreakerState);
        if (chaos.internal != 0) {
            std::printf("FAIL: %zu internal_error responses under "
                        "chaos\n",
                        chaos.internal);
            rc++;
        }
        if (ratio < 0.9) {
            std::printf("FAIL: chaos goodput ratio %.2f < 0.90\n",
                        ratio);
            rc++;
        }
        if (st.diskBreakerOpens == 0) {
            std::printf("FAIL: disk breaker never opened under "
                        "read stalls\n");
            rc++;
        }

        // The disk heals: after the cooldown the next misses probe
        // the breaker closed again.
        auto until = Clock::now() + std::chrono::seconds(10);
        while (std::string(svc.stats().diskBreakerState) !=
                   "closed" &&
               Clock::now() < until) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(60));
            pacedRun(svc, cls, 1, 0.0, 0.0); // a fresh miss probes
        }
        if (std::string(svc.stats().diskBreakerState) !=
            "closed") {
            std::printf("FAIL: disk breaker did not re-close "
                        "after the fault cleared\n");
            rc++;
        } else {
            std::printf("chaos: breaker re-closed after "
                        "recovery\n");
        }
    }
    removeTree(cacheDir);
    return rc;
}

} // namespace

int
main()
{
    std::size_t n = bench::countFromEnv("GPM_BENCH_REQUESTS", 24);
    constexpr std::size_t kRuns = 5;
    constexpr double kRunSec = 1.0;
    const std::vector<double> mults = {1.0, 2.0, 4.0};

    bench::banner("Overload",
                  "goodput and latency at 1x, 2x and 4x the "
                  "measured capacity, per configuration, then "
                  "chaos at 2x with disk-read-stall armed");

    bench::Env env;
    const std::vector<CostClass> classes = {
        {"mcf,crafty MaxBIPS", {"mcf", "crafty"}, "MaxBIPS", 0.0},
        {"many256 GreedyTurbo", *findCombination("many256"),
         "GreedyTurbo", 0.1},
    };
    const std::vector<Mode> modes = {{"off", false, false},
                                     {"admission", true, false},
                                     {"ladder", true, true}};

    int rc = 0;
    for (const CostClass &cls : classes) {
        Capacity cap = measureCapacity(env, cls, n);
        double capacityPerSec = cap.perSec;
        // 8 sequential request times: generous when unloaded,
        // predictably doomed deep in an overloaded queue.
        double deadlineMs = 8.0 * cap.sequentialMs;
        std::printf("\n%s: capacity %.1f req/s (burst), %.3f ms per "
                    "sequential request, deadline %.3f ms\n",
                    cls.name, capacityPerSec, cap.sequentialMs,
                    deadlineMs);
        // cells[m][k]: modes[m] at mults[k]. The runs of one load
        // alternate between the modes, so a drift in the host's
        // speed lands on every mode alike.
        std::vector<std::vector<Cell>> cells(
            modes.size(), std::vector<Cell>(mults.size()));
        for (std::size_t k = 0; k < mults.size(); k++) {
            double rate = capacityPerSec * mults[k];
            auto count = static_cast<std::size_t>(rate * kRunSec);
            for (std::size_t run = 0; run < kRuns; run++) {
                for (std::size_t m = 0; m < modes.size(); m++) {
                    ServiceOptions opts = serviceOpts();
                    opts.admission.enabled = modes[m].admission;
                    opts.degradeLadder = modes[m].ladder;
                    ScenarioService svc(env.lib, env.dvfs, opts);
                    pacedRun(svc, cls, n, 0.0, 0.0);
                    RunResult r =
                        pacedRun(svc, cls, count, rate, deadlineMs);
                    if (r.internal != 0) {
                        std::printf("FAIL: %zu internal_error "
                                    "responses\n",
                                    r.internal);
                        rc = 1;
                    }
                    if (mults[k] >= 2.0 &&
                        r.offeredPerSec < 1.5 * capacityPerSec) {
                        std::printf("FAIL: %s %s %.0fx run offered "
                                    "%.1f/s, under 1.5x the "
                                    "capacity %.1f/s\n",
                                    cls.name, modes[m].name, mults[k],
                                    r.offeredPerSec, capacityPerSec);
                        rc = 1;
                    }
                    cells[m][k].add(r);
                }
            }
        }
        for (std::size_t m = 0; m < modes.size(); m++)
            for (std::size_t k = 0; k < mults.size(); k++)
                report(cls, modes[m].name, mults[k], capacityPerSec,
                       cells[m][k]);
        if (&cls == &classes.front()) {
            std::printf("\n");
            if (chaosPhase(env, cls, capacityPerSec, n) != 0)
                rc = 1;
        }
    }

    std::printf("\n%s\n",
                rc == 0 ? "BENCH_OVERLOAD OK"
                        : "BENCH_OVERLOAD FAILED");
    return rc;
}
