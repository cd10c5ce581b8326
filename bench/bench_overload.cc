/**
 * @file
 * Overload-resilience benchmark: goodput and tail latency of the
 * scenario service across offered-load sweeps, with the adaptive
 * layer (admission control + degradation ladder) on vs off, plus a
 * self-asserting chaos phase that arms `disk-read-stall` at 2x the
 * measured capacity and checks the hardened daemon:
 *
 *   - sustains >= 90% of its unloaded goodput,
 *   - returns zero internal_error responses,
 *   - opens the disk-cache read breaker under the stalls and closes
 *     it again once the "disk" heals.
 *
 * Phases:
 *   capacity   sequential cold requests -> mean service time; this
 *              also primes the admission EWMAs, as production
 *              serving would
 *   sweep      offered load {1, 2, 4}x capacity, hardened and
 *              baseline (--overload-off --degrade-ladder 0
 *              equivalent), paced arrivals over 4 client ids
 *   chaos      hardened daemon, 2x load, disk-read-stall armed
 *
 * NDJSON records go to BENCH_sweep.json (bench "overload"). The
 * process exits non-zero when a chaos assertion fails, so tier-2
 * scripts can gate on it. Knobs: GPM_BENCH_REQUESTS per phase
 * (default 24), plus the usual GPM_SCALE / GPM_PROFILE_CACHE_DIR.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <dirent.h>
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

std::size_t
envSize(const char *name, std::size_t fallback)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return fallback;
    long v = std::atol(s);
    return v > 0 ? static_cast<std::size_t>(v) : fallback;
}

/** Every request gets a budget no prior request of this process
 *  used (odd multiplier mod 2^16 is a bijection), so each one is a
 *  guaranteed cache miss while staying inside the valid (0, 1]
 *  budget range. */
ScenarioSpec
nextScenario()
{
    static std::atomic<std::size_t> counter{0};
    std::size_t k = (counter++ * 7919) % 65536;
    ScenarioSpec s;
    s.combo = {"mcf", "crafty"};
    s.policy = "MaxBIPS";
    s.budgets = {0.60 + 0.38 * static_cast<double>(k) / 65536.0};
    return s;
}

/** Everything one paced-load run produces. */
struct RunResult
{
    double wallMs = 0.0;
    std::size_t ok = 0;
    std::size_t degraded = 0;
    std::size_t shed = 0;      ///< rejected_overload
    std::size_t deadline = 0;  ///< deadline_exceeded
    std::size_t busy = 0;
    std::size_t internal = 0;
    std::vector<double> latenciesMs; ///< ok responses only, sorted

    double
    goodputPerSec() const
    {
        return wallMs > 0.0
            ? static_cast<double>(ok) / (wallMs / 1000.0)
            : 0.0;
    }
};

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

/**
 * Submit @p n unique scenarios at @p perSec paced arrivals (0 =
 * back-to-back), each with @p deadlineMs, round-robin over 4
 * client ids, and wait for every callback.
 */
RunResult
pacedRun(ScenarioService &svc, std::size_t n, double perSec,
         double deadlineMs)
{
    RunResult res;
    std::mutex mtx;
    std::condition_variable cv;
    std::size_t doneCount = 0;

    bench::WallTimer wall;
    for (std::size_t i = 0; i < n; i++) {
        ScenarioSpec spec = nextScenario();
        spec.deadlineMs = deadlineMs;
        auto t0 = std::chrono::steady_clock::now();
        svc.submitAsync(
            spec,
            [&, t0](ScenarioService::Response &&r) {
                double ms =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                std::lock_guard<std::mutex> lock(mtx);
                if (r.ok) {
                    res.ok++;
                    res.latenciesMs.push_back(ms);
                    if (!r.degradedTo.empty())
                        res.degraded++;
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
                cv.notify_all();
            },
            1 + i % 4);
        if (perSec > 0.0 && i + 1 < n)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(1.0 / perSec));
    }
    {
        std::unique_lock<std::mutex> lock(mtx);
        cv.wait(lock, [&] { return doneCount == n; });
    }
    res.wallMs = wall.ms();
    std::sort(res.latenciesMs.begin(), res.latenciesMs.end());
    return res;
}

void
report(const char *phase, const char *mode, double mult,
       const RunResult &r)
{
    std::printf("%-8s %-9s %4.1fx  goodput %6.1f/s  p99 %8.1f ms  "
                "ok %3zu  degraded %3zu  shed %3zu  deadline %3zu  "
                "busy %3zu  internal %3zu\n",
                phase, mode, mult, r.goodputPerSec(),
                percentile(r.latenciesMs, 0.99), r.ok, r.degraded,
                r.shed, r.deadline, r.busy, r.internal);
    char buf[360];
    std::snprintf(
        buf, sizeof(buf),
        "{ \"bench\": \"overload\", \"phase\": \"%s\", "
        "\"mode\": \"%s\", \"load_mult\": %.1f, "
        "\"goodput_per_sec\": %.1f, \"p99_ms\": %.1f, "
        "\"ok\": %zu, \"degraded\": %zu, \"shed\": %zu, "
        "\"deadline\": %zu, \"busy\": %zu, \"internal\": %zu }",
        phase, mode, mult, r.goodputPerSec(),
        percentile(r.latenciesMs, 0.99), r.ok, r.degraded, r.shed,
        r.deadline, r.busy, r.internal);
    bench::appendBenchLine(buf);
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
hardenedOpts()
{
    ServiceOptions opts;
    opts.workers = 1; // capacity == 1/meanServiceTime, by design
    opts.queueCapacity = 48;
    opts.sweepConcurrency = 1;
    opts.cacheCapacity = 256;
    return opts;
}

} // namespace

int
main()
{
    std::size_t n = envSize("GPM_BENCH_REQUESTS", 24);

    bench::banner("Overload resilience",
                  "goodput + p99 across offered-load sweeps, "
                  "adaptive layer on vs off, then chaos at 2x "
                  "with disk-read-stall armed");

    bench::Env env;

    // --- Phase 1: capacity. A saturating burst through the single
    // worker measures the true mean service time (wall over
    // completions, not per-request latency, which would fold queue
    // wait back in) and primes the EWMAs the admission controller
    // predicts with.
    ScenarioService warm(env.lib, env.dvfs, hardenedOpts());
    RunResult cap =
        pacedRun(warm, std::max<std::size_t>(n, 16), 0.0, 0.0);
    if (cap.ok == 0)
        fatal("capacity phase produced no completions");
    double meanMs = cap.wallMs / static_cast<double>(cap.ok);
    double capacityPerSec = 1000.0 / meanMs;
    std::printf("capacity: mean service %.2f ms -> %.1f req/s\n\n",
                meanMs, capacityPerSec);

    // --- Phase 2: offered-load sweep, hardened vs baseline. The
    // deadline is 8 mean service times: generous when unloaded,
    // predictably doomed deep in an overloaded queue.
    double deadlineMs = 8.0 * meanMs;
    for (double mult : {1.0, 2.0, 4.0}) {
        RunResult hard =
            pacedRun(warm, n, capacityPerSec * mult, deadlineMs);
        report("sweep", "hardened", mult, hard);
    }
    std::printf("\n");
    {
        ServiceOptions base = hardenedOpts();
        base.admission.enabled = false;
        base.degradeLadder = false;
        ScenarioService baseline(env.lib, env.dvfs, base);
        // Same warmup so EWMAs/caches start comparable (they are
        // unused with the layer off, but the profile library and
        // runners are shared state worth equalizing).
        pacedRun(baseline, std::max<std::size_t>(n / 3, 6), 0.0,
                 0.0);
        for (double mult : {1.0, 2.0, 4.0}) {
            RunResult off = pacedRun(baseline, n,
                                     capacityPerSec * mult,
                                     deadlineMs);
            report("sweep", "baseline", mult, off);
        }
    }
    std::printf("\n");

    // --- Phase 3: chaos. Disk reads stall-and-fail under 2x load;
    // the read breaker must collapse the service to memory-only
    // serving, goodput must hold against an un-faulted run at the
    // SAME offered load, and nothing may surface as
    // internal_error. The request count scales with the measured
    // service time so the fixed breaker-opening overhead (a
    // handful of 1 ms stalls) amortizes at any GPM_SCALE.
    std::string cacheDir = makeCacheDir();
    int rc = 0;
    {
        std::size_t chaosN = std::clamp<std::size_t>(
            static_cast<std::size_t>(1500.0 / meanMs),
            std::max<std::size_t>(2 * n, 48), 6000);
        ServiceOptions chaosOpts = hardenedOpts();
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
            pacedRun(svc, chaosN, capacityPerSec * 2.0, 0.0);
        report("chaos", "no-fault", 2.0, ref);

        if (fault::arm("disk-read-stall:1:1,seed:42"))
            fatal("fault spec rejected");
        RunResult chaos =
            pacedRun(svc, chaosN, capacityPerSec * 2.0, 0.0);
        report("chaos", "hardened", 2.0, chaos);
        fault::disarm();

        ServiceStats st = svc.stats();
        double ratio = ref.goodputPerSec() > 0.0
            ? chaos.goodputPerSec() / ref.goodputPerSec()
            : 0.0;
        std::printf("chaos: goodput ratio %.2f, degraded %zu, "
                    "breaker opens %llu, state %s\n",
                    ratio, chaos.degraded,
                    static_cast<unsigned long long>(
                        st.diskBreakerOpens),
                    st.diskBreakerState);
        if (chaos.internal != 0) {
            std::printf("FAIL: %zu internal_error responses under "
                        "chaos\n",
                        chaos.internal);
            rc = 1;
        }
        if (ratio < 0.9) {
            std::printf("FAIL: chaos goodput ratio %.2f < 0.90\n",
                        ratio);
            rc = 1;
        }
        if (st.diskBreakerOpens == 0) {
            std::printf("FAIL: disk breaker never opened under "
                        "read stalls\n");
            rc = 1;
        }

        // The disk heals: after the cooldown the next misses probe
        // the breaker closed again.
        auto until = std::chrono::steady_clock::now() +
            std::chrono::seconds(10);
        while (std::string(svc.stats().diskBreakerState) !=
                   "closed" &&
               std::chrono::steady_clock::now() < until) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(60));
            pacedRun(svc, 1, 0.0, 0.0); // a fresh miss probes
        }
        if (std::string(svc.stats().diskBreakerState) !=
            "closed") {
            std::printf("FAIL: disk breaker did not re-close "
                        "after the fault cleared\n");
            rc = 1;
        } else {
            std::printf("chaos: breaker re-closed after "
                        "recovery\n");
        }
    }
    removeTree(cacheDir);

    std::printf("\n%s\n",
                rc == 0 ? "BENCH_OVERLOAD OK"
                        : "BENCH_OVERLOAD FAILED");
    return rc;
}
