/**
 * @file
 * Sharded-fleet scaling benchmark: gpm-router in front of 1, 2 and
 * 4 in-process gpmd backends sharing one --cache-dir, against a
 * direct single-gpmd baseline on identical warm work.
 *
 * Phases (all driving the same 64-scenario warm set, pipelined
 * over GPM_BENCH_SHARD_CONNS connections):
 *
 *   direct-1   clients -> gpmd, no router (baseline)
 *   router-1   clients -> gpm-router -> 1 backend (proxy overhead)
 *   router-2   clients -> gpm-router -> 2 backends
 *   router-4   clients -> gpm-router -> 4 backends
 *   router-2-kill  2 backends; one is stopped mid-load while
 *              retrying clients keep submitting — every request
 *              must complete (retries allowed) and no client may
 *              ever see internal_error
 *
 * Every topology is warmed through its own front door first (one
 * untimed pass computes / disk-loads each scenario into the shard
 * owner's memory tier), so the measured pass is the serving path.
 * The shared cache directory is the fleet-wide reuse story: after
 * the kill, re-routed scenarios answer from the surviving
 * backend's disk tier, byte-identical.
 *
 * Enforcement: any request error in the scaling phases fails the
 * run; the router-2 >= 1.6x direct-1 scaling gate additionally
 * requires std::thread::hardware_concurrency() >= 4 (backends are
 * in-process threads — on a 1-2 core host they time-slice one CPU
 * and the ratio is meaningless). GPM_BENCH_NO_ENFORCE=1 records
 * numbers without either gate.
 *
 * Each phase goes to stdout and to BENCH_sweep.json as one NDJSON
 * record:
 *
 *   { "bench": "shard_scale", "phase": ..., "backends": N,
 *     "conns": C, "scenarios": M, "wall_ms": ...,
 *     "scenarios_per_sec": ..., "p50_ms": ..., "p99_ms": ...,
 *     "failures": F }
 *
 * (the kill phase adds "retries" and "rerouted").
 *
 * Knobs: GPM_BENCH_SHARD_CONNS (default 8),
 * GPM_BENCH_SHARD_PER_CONN (default 128), plus the usual
 * GPM_SCALE / GPM_PROFILE_CACHE_DIR.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common.hh"
#include "router/router.hh"
#include "service/json.hh"
#include "service/server.hh"
#include "service/service.hh"

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

/** Distinct scenarios in the warm set: enough budgets that a
 *  4-backend ring gets a meaningful shard split. */
constexpr std::size_t kWarmSet = 64;

/** One of the fixed warm-set scenarios (64 distinct budgets). */
std::string
warmScenarioJson(std::size_t v)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"combo\":[\"mcf\",\"crafty\"],"
                  "\"policy\":\"MaxBIPS\",\"budget\":%.6f}",
                  0.55 + 0.005 * static_cast<double>(v % kWarmSet));
    return buf;
}

std::string
submitLine(std::size_t conn, std::size_t k)
{
    return "{\"id\":\"s" + std::to_string(conn) + "-" +
        std::to_string(k) + "\",\"verb\":\"submit\","
        "\"scenario\":" + warmScenarioJson(conn + k) + "}\n";
}

struct PhaseResult
{
    double wallMs = 0.0;
    std::vector<double> latenciesMs; // one per scenario
    std::size_t failures = 0;
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

/** Print + record one phase; returns its scenarios/sec. */
double
report(const char *phase, std::size_t backends, std::size_t conns,
       std::size_t totalScenarios, const PhaseResult &res,
       const std::string &extraJson = "")
{
    double perSec = res.wallMs > 0.0
        ? static_cast<double>(totalScenarios) /
            (res.wallMs / 1000.0)
        : 0.0;
    double p50 = percentile(res.latenciesMs, 0.50);
    double p99 = percentile(res.latenciesMs, 0.99);
    std::printf("%-14s %7.0f scen/s  p50 %7.1f ms  p99 %7.1f ms  "
                "wall %8.1f ms%s\n",
                phase, perSec, p50, p99, res.wallMs,
                res.failures ? "  [FAILURES]" : "");
    char buf[384];
    std::snprintf(
        buf, sizeof(buf),
        "{ \"bench\": \"shard_scale\", \"phase\": \"%s\", "
        "\"backends\": %zu, \"conns\": %zu, \"scenarios\": %zu, "
        "\"wall_ms\": %.1f, \"scenarios_per_sec\": %.1f, "
        "\"p50_ms\": %.1f, \"p99_ms\": %.1f, \"failures\": %zu%s }",
        phase, backends, conns, totalScenarios, res.wallMs, perSec,
        p50, p99, res.failures, extraJson.c_str());
    bench::appendBenchLine(buf);
    return perSec;
}

/** Fresh scratch directory for the fleet's shared disk tier. */
std::string
makeCacheDir()
{
    char tmpl[] = "/tmp/gpm_bench_shard_XXXXXX";
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

/**
 * N in-process gpmd backends over one shared cache directory —
 * each is a full ScenarioService + GpmServer (reactor) pair, the
 * same stack `gpmd --cache-dir` runs, minus the process boundary.
 */
struct Fleet
{
    Fleet(bench::Env &env_, const std::string &cacheDir_)
        : env(env_), cacheDir(cacheDir_)
    {
    }

    ~Fleet() { stopAll(); }

    void
    start(std::size_t n)
    {
        for (std::size_t i = 0; i < n; i++) {
            ServiceOptions opts;
            opts.workers = 2;
            opts.queueCapacity = kWarmSet + 16;
            opts.sweepConcurrency = 1;
            opts.cacheDir = cacheDir;
            svcs.push_back(std::make_unique<ScenarioService>(
                env.lib, env.dvfs, opts));
            auto listener = TcpListener::listenOn("127.0.0.1", 0);
            if (!listener.ok())
                fatal("fleet listen: %s",
                      listener.error().c_str());
            servers.push_back(std::make_unique<GpmServer>(
                *svcs.back(), std::move(listener.value())));
            threads.emplace_back(
                [srv = servers.back().get()] { srv->run(); });
            endpoints.push_back(
                {"127.0.0.1", servers.back()->port()});
        }
    }

    /** Take backend @p i down (clean close: the router sees its
     *  pooled connections EOF and fails over). */
    void
    stop(std::size_t i)
    {
        if (i >= servers.size() || !servers[i])
            return;
        servers[i]->requestStop();
        if (threads[i].joinable())
            threads[i].join();
        servers[i]->stopAndDrain();
        servers[i].reset();
        svcs[i].reset();
    }

    void
    stopAll()
    {
        for (std::size_t i = 0; i < servers.size(); i++)
            stop(i);
        servers.clear();
        svcs.clear();
        threads.clear();
        endpoints.clear();
    }

    bench::Env &env;
    std::string cacheDir;
    std::vector<std::unique_ptr<ScenarioService>> svcs;
    std::vector<std::unique_ptr<GpmServer>> servers;
    std::vector<std::thread> threads;
    std::vector<RouterEndpoint> endpoints;
};

/** gpm-router over @p eps on an ephemeral port, serving on its own
 *  thread until destroyed. */
struct RouterUnderTest
{
    explicit RouterUnderTest(std::vector<RouterEndpoint> eps)
    {
        auto listener = TcpListener::listenOn("127.0.0.1", 0);
        if (!listener.ok())
            fatal("router listen: %s", listener.error().c_str());
        RouterOptions opts;
        opts.breaker.window = 8;
        opts.breaker.minSamples = 4;
        opts.breaker.cooldownMs = 50.0;
        opts.probeIntervalMs = 10;
        opts.backendConnectTimeoutMs = 500;
        router = std::make_unique<GpmRouter>(
            std::move(eps), std::move(listener.value()), opts);
        thread = std::thread([this] { router->run(); });
    }

    ~RouterUnderTest()
    {
        router->requestStop();
        if (thread.joinable())
            thread.join();
        router->stopAndDrain();
    }

    std::uint16_t port() const { return router->port(); }

    std::unique_ptr<GpmRouter> router;
    std::thread thread;
};

/** One untimed pass over the warm set so the measured pass hits
 *  each shard owner's memory tier (or at worst the shared disk).
 *  Sequential round trips, not a pipeline: a cold pass queues
 *  every scenario, and 64 outstanding submits on one connection
 *  would trip gpmd's per-client admission cap by design. */
void
warmThrough(std::uint16_t port)
{
    auto conn = TcpStream::connectTo("127.0.0.1", port);
    if (!conn.ok())
        fatal("warm connect: %s", conn.error().c_str());
    TcpStream stream = std::move(conn.value());
    std::string line;
    for (std::size_t v = 0; v < kWarmSet; v++) {
        if (!stream.writeAll(submitLine(0, v)))
            fatal("warm send failed");
        if (stream.readLine(line) != TcpStream::ReadStatus::Line)
            fatal("warm pass lost its connection after %zu of %zu "
                  "responses",
                  v, kWarmSet);
        if (line.find("\"ok\":true") == std::string::npos)
            fatal("warm pass scenario %zu failed: %s", v,
                  line.c_str());
    }
}

/** One measured client: pipeline perConn warm submits, then
 *  collect the responses. */
void
runClient(std::uint16_t port, std::size_t conn,
          std::size_t perConn, std::vector<double> &latencies,
          std::atomic<std::size_t> &failures)
{
    auto c = TcpStream::connectTo("127.0.0.1", port);
    if (!c.ok())
        fatal("client %zu: %s", conn, c.error().c_str());
    TcpStream stream = std::move(c.value());
    std::string pipeline;
    for (std::size_t k = 0; k < perConn; k++)
        pipeline += submitLine(conn, k);

    bench::WallTimer timer;
    if (!stream.writeAll(pipeline))
        fatal("client %zu: send failed", conn);
    std::string line;
    for (std::size_t k = 0; k < perConn; k++) {
        if (stream.readLine(line) !=
            TcpStream::ReadStatus::Line) {
            failures += perConn - k;
            return;
        }
        latencies.push_back(timer.ms());
        if (line.find("\"ok\":true") == std::string::npos)
            failures++;
    }
}

PhaseResult
drivePhase(std::uint16_t port, std::size_t conns,
           std::size_t perConn)
{
    PhaseResult res;
    std::vector<std::vector<double>> lats(conns);
    std::atomic<std::size_t> failures{0};
    bench::WallTimer wall;
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < conns; c++)
            threads.emplace_back(runClient, port, c, perConn,
                                 std::ref(lats[c]),
                                 std::ref(failures));
        for (auto &t : threads)
            t.join();
    }
    res.wallMs = wall.ms();
    res.failures = failures.load();
    for (auto &l : lats)
        res.latenciesMs.insert(res.latenciesMs.end(), l.begin(),
                               l.end());
    std::sort(res.latenciesMs.begin(), res.latenciesMs.end());
    return res;
}

/** Run one routed topology end to end; returns its scen/s. */
double
routerPhase(bench::Env &env, const std::string &cacheDir,
            std::size_t nBackends, std::size_t conns,
            std::size_t perConn, std::size_t &failures)
{
    Fleet fleet(env, cacheDir);
    fleet.start(nBackends);
    RouterUnderTest rt(fleet.endpoints);
    warmThrough(rt.port());
    PhaseResult res = drivePhase(rt.port(), conns, perConn);
    failures += res.failures;
    char phase[32];
    std::snprintf(phase, sizeof(phase), "router-%zu", nBackends);
    return report(phase, nBackends, conns, conns * perConn, res);
}

// ===============================================================
// Kill phase: retrying clients vs a mid-load backend loss
// ===============================================================

/**
 * One failover client: submit @p count scenarios one at a time,
 * retrying retryable errors (busy / rejected_overload / draining)
 * and transport drops with a fresh connection. internal_error is
 * never retryable — it counts as a hard failure.
 */
void
runRetryClient(std::uint16_t port, std::size_t id,
               std::size_t count,
               std::atomic<std::size_t> &completed,
               std::atomic<std::size_t> &retries,
               std::atomic<std::size_t> &hardFailures)
{
    constexpr int maxAttempts = 200;
    TcpStream stream;
    for (std::size_t k = 0; k < count; k++) {
        std::string req = submitLine(id, k);
        bool done = false;
        for (int attempt = 0; attempt < maxAttempts && !done;
             attempt++) {
            if (attempt > 0)
                retries++;
            if (!stream.valid()) {
                auto c = TcpStream::connectTo("127.0.0.1", port);
                if (!c.ok()) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(10));
                    continue;
                }
                stream = std::move(c.value());
            }
            std::string line;
            if (!stream.writeAll(req) ||
                stream.readLine(line) !=
                    TcpStream::ReadStatus::Line) {
                stream = TcpStream();
                continue;
            }
            if (line.find("\"ok\":true") != std::string::npos) {
                completed++;
                done = true;
                break;
            }
            if (line.find("\"internal_error\"") !=
                std::string::npos) {
                std::fprintf(stderr,
                             "client %zu got internal_error: %s\n",
                             id, line.c_str());
                hardFailures++;
                done = true;
                break;
            }
            // Retryable shed (busy & co): back off briefly.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
        if (!done)
            hardFailures++;
    }
}

} // namespace

int
main()
{
    std::size_t conns = envSize("GPM_BENCH_SHARD_CONNS", 8);
    std::size_t perConn = envSize("GPM_BENCH_SHARD_PER_CONN", 128);

    bench::banner(
        "Sharded fleet scaling",
        "gpm-router over 1/2/4 in-process gpmd backends sharing "
        "one cache dir, vs direct single-gpmd; then a "
        "kill-one-backend failover phase under retrying load.");
    std::printf("%zu conns x %zu warm submits each, %zu-scenario "
                "warm set\n\n",
                conns, perConn, kWarmSet);

    bench::Env env;
    std::string cacheDir = makeCacheDir();
    std::size_t scaleFailures = 0;

    // ---- direct baseline ----
    double directPerSec = 0.0;
    {
        Fleet fleet(env, cacheDir);
        fleet.start(1);
        std::uint16_t port = fleet.endpoints[0].port;
        warmThrough(port);
        PhaseResult res = drivePhase(port, conns, perConn);
        scaleFailures += res.failures;
        directPerSec =
            report("direct-1", 1, conns, conns * perConn, res);
    }

    // ---- routed topologies ----
    routerPhase(env, cacheDir, 1, conns, perConn, scaleFailures);
    double r2PerSec = routerPhase(env, cacheDir, 2, conns, perConn,
                                  scaleFailures);
    routerPhase(env, cacheDir, 4, conns, perConn, scaleFailures);

    // ---- kill-one-backend failover ----
    std::size_t killClients = 4;
    std::size_t killPerClient = kWarmSet * 2;
    std::atomic<std::size_t> completed{0};
    std::atomic<std::size_t> retries{0};
    std::atomic<std::size_t> hardFailures{0};
    std::uint64_t rerouted = 0;
    {
        Fleet fleet(env, cacheDir);
        fleet.start(2);
        RouterUnderTest rt(fleet.endpoints);
        warmThrough(rt.port());

        bench::WallTimer wall;
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < killClients; c++)
            clients.emplace_back(
                runRetryClient, rt.port(), c, killPerClient,
                std::ref(completed), std::ref(retries),
                std::ref(hardFailures));
        // Let the load get going, then take a backend down
        // mid-flight.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(5));
        fleet.stop(0);
        for (auto &t : clients)
            t.join();

        RouterStats rs = rt.router->stats();
        rerouted = rs.rerouted;
        std::uint64_t rehashes = 0;
        for (const auto &b : rs.backends)
            rehashes += b.rehashes;
        PhaseResult res;
        res.wallMs = wall.ms();
        res.failures = hardFailures.load();
        char extra[128];
        std::snprintf(extra, sizeof(extra),
                      ", \"retries\": %zu, \"rerouted\": %llu, "
                      "\"rehashes\": %llu",
                      retries.load(),
                      static_cast<unsigned long long>(rerouted),
                      static_cast<unsigned long long>(rehashes));
        report("router-2-kill", 2, killClients,
               killClients * killPerClient, res, extra);
        std::printf("  kill phase: %zu/%zu completed, %zu retries, "
                    "%llu rerouted, %llu failover placements, "
                    "%llu backend failures seen\n",
                    completed.load(), killClients * killPerClient,
                    retries.load(),
                    static_cast<unsigned long long>(rerouted),
                    static_cast<unsigned long long>(rehashes),
                    static_cast<unsigned long long>(
                        rs.backendFailures));
    }
    removeTree(cacheDir);

    double ratio =
        directPerSec > 0.0 ? r2PerSec / directPerSec : 0.0;
    unsigned hw = std::thread::hardware_concurrency();
    std::printf("\nrouter-2 vs direct-1: %.2fx warm scenarios/sec "
                "(%u hardware threads)\n",
                ratio, hw);

    const char *noEnforce = std::getenv("GPM_BENCH_NO_ENFORCE");
    bool enforce = !(noEnforce && *noEnforce == '1');
    if (enforce && scaleFailures > 0)
        fatal("scaling phases saw %zu request errors",
              scaleFailures);
    if (enforce &&
        (hardFailures.load() > 0 ||
         completed.load() < killClients * killPerClient))
        fatal("kill phase: %zu hard failures, %zu/%zu completed",
              hardFailures.load(), completed.load(),
              killClients * killPerClient);
    if (enforce && hw >= 4 && ratio < 1.6)
        fatal("2-backend warm throughput only %.2fx the direct "
              "single-gpmd baseline (need >= 1.6x)",
              ratio);
    if (hw < 4)
        std::printf("scaling gate skipped: backends are in-process "
                    "threads and this host has %u hardware "
                    "threads (need >= 4 for an honest ratio)\n",
                    hw);
    return 0;
}
