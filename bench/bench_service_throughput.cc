/**
 * @file
 * Serving-path throughput benchmark, in two acts.
 *
 * Act 1 — cache hierarchy (N pipelined clients x M scenarios each
 * against an in-process gpmd):
 *
 *   cold         empty memory + empty disk — every scenario computes
 *   warm-memory  same scenarios against the same daemon — memory hits
 *   warm-disk    fresh daemon over the same --cache-dir — disk hits
 *
 * cold and warm-memory share one server as well as one service:
 * stopping a server drains its service for good, after which every
 * miss would be answered "draining".
 *
 * Act 2 — transport scale, comparing the epoll reactor against the
 * old architecture on identical warm-cache work:
 *
 *   tpc-baseline      a minimal thread-per-connection NDJSON server
 *                     (blocking reader thread per socket — the
 *                     pre-reactor design, reproduced here) serving
 *                     GPM_BENCH_TPC_CONNS connections x
 *                     GPM_BENCH_CONN_SCENARIOS pipelined submits
 *   reactor-sustained the real GpmServer reactor serving
 *                     GPM_BENCH_REACTOR_CONNS concurrent pipelined
 *                     connections (default 5000 — 5x the baseline)
 *   reactor-churn     waves of connect / one submit / close against
 *                     the reactor (accept-path + teardown throughput)
 *
 * The transport phases are driven by a single-threaded epoll client
 * (thread-per-connection clients cannot hold 5000 sockets honestly),
 * submitting a fixed 16-scenario warm set so the measurement is the
 * serving path, not the sweep engine.
 *
 * The run FAILS (exit 1) when any request of any phase failed: a
 * phase that served errors is not a throughput number. At full scale
 * (reactor conns >= 5000) it also fails unless the reactor's warm
 * scenarios/sec beat the baseline by >= 1.5x; set
 * GPM_BENCH_NO_ENFORCE=1 to record numbers without that ratio gate.
 *
 * Each phase goes to stdout and to BENCH_sweep.json as one NDJSON
 * record:
 *
 *   { "bench": "service_throughput", "phase": ..., "clients": N,
 *     "scenarios": M, "wall_ms": ..., "scenarios_per_sec": ...,
 *     "p50_ms": ..., "p99_ms": ..., "failures": F }
 *
 * Latencies are per-scenario completion times from the moment the
 * client starts sending its pipeline (so the p99 of the cold phase
 * reflects queueing behind the whole batch, by design).
 *
 * Knobs: GPM_BENCH_CLIENTS (default 4), GPM_BENCH_SCENARIOS per
 * client (default 8), GPM_BENCH_TPC_CONNS (default reactor/5),
 * GPM_BENCH_REACTOR_CONNS (default 5000), GPM_BENCH_CONN_SCENARIOS
 * (default 8), GPM_BENCH_CHURN_CONNS (default 2000), plus the usual
 * GPM_SCALE / GPM_PROFILE_CACHE_DIR.
 */

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <functional>
#include <mutex>
#include <netinet/in.h>
#include <poll.h>
#include <string>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common.hh"
#include "service/line_scanner.hh"
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

/** Lift the soft fd limit to the hard one: the transport phases
 *  hold (client + server) x conns sockets in one process. */
void
raiseFdLimit()
{
    rlimit rl{};
    if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 &&
        rl.rlim_cur < rl.rlim_max) {
        rl.rlim_cur = rl.rlim_max;
        ::setrlimit(RLIMIT_NOFILE, &rl);
    }
    ::getrlimit(RLIMIT_NOFILE, &rl);
    std::printf("fd limit: %llu\n\n",
                static_cast<unsigned long long>(rl.rlim_cur));
}

/** The scenario a given (client, slot) pair submits: one combo, one
 *  policy, a budget unique to the pair so every scenario hashes
 *  differently (all misses when cold). */
std::string
scenarioLine(std::size_t client, std::size_t slot,
             std::size_t perClient)
{
    double budget = 0.60 +
        0.39 *
            static_cast<double>(client * perClient + slot) /
            static_cast<double>(perClient * 64);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":\"c%zu-%zu\",\"verb\":\"submit\","
                  "\"scenario\":{\"combo\":[\"mcf\",\"crafty\"],"
                  "\"policy\":\"MaxBIPS\",\"budget\":%.6f}}\n",
                  client, slot, budget);
    return buf;
}

struct PhaseResult
{
    double wallMs = 0.0;
    std::vector<double> latenciesMs; // one per scenario
    std::size_t failures = 0;
};

/** One client: pipeline all requests, then collect all responses. */
void
runClient(std::uint16_t port, std::size_t client,
          std::size_t perClient, std::vector<double> &latencies,
          std::atomic<std::size_t> &failures)
{
    auto conn = TcpStream::connectTo("127.0.0.1", port);
    if (!conn.ok())
        fatal("client %zu: %s", client, conn.error().c_str());
    TcpStream stream = std::move(conn.value());

    std::string pipeline;
    for (std::size_t k = 0; k < perClient; k++)
        pipeline += scenarioLine(client, k, perClient);

    bench::WallTimer timer;
    if (!stream.writeAll(pipeline))
        fatal("client %zu: send failed", client);
    std::string line;
    for (std::size_t k = 0; k < perClient; k++) {
        if (stream.readLine(line) != TcpStream::ReadStatus::Line)
            fatal("client %zu: connection lost after %zu of %zu "
                  "responses",
                  client, k, perClient);
        latencies.push_back(timer.ms());
        if (line.find("\"ok\":true") == std::string::npos)
            failures++;
    }
}

/**
 * An in-process gpmd: a GpmServer over @p svc on an ephemeral
 * loopback port, serving on its own thread. Destruction stops the
 * server and drains @p svc, which takes no work afterwards.
 */
class Daemon
{
  public:
    explicit Daemon(ScenarioService &svc)
        : server(svc, listenLoopback()),
          thread([this] { server.run(); })
    {
    }

    ~Daemon()
    {
        server.requestStop();
        thread.join();
        server.stopAndDrain();
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    std::uint16_t port() const { return server.port(); }

  private:
    static TcpListener
    listenLoopback()
    {
        auto listener = TcpListener::listenOn("127.0.0.1", 0, 4096);
        if (!listener.ok())
            fatal("listen: %s", listener.error().c_str());
        return std::move(listener.value());
    }

    GpmServer server;
    std::thread thread;
};

PhaseResult
runPhase(std::uint16_t port, std::size_t clients,
         std::size_t perClient)
{
    PhaseResult res;
    std::vector<std::vector<double>> lats(clients);
    std::atomic<std::size_t> failures{0};
    bench::WallTimer wall;
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < clients; c++)
            threads.emplace_back(runClient, port, c, perClient,
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

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

/** Failed requests summed over every reported phase. */
std::size_t totalFailures = 0;

/** Print + record one phase; returns its scenarios/sec. */
double
report(const char *phase, std::size_t clients,
       std::size_t perClient, const PhaseResult &res)
{
    totalFailures += res.failures;
    double total = static_cast<double>(clients * perClient);
    double perSec =
        res.wallMs > 0.0 ? total / (res.wallMs / 1000.0) : 0.0;
    double p50 = percentile(res.latenciesMs, 0.50);
    double p99 = percentile(res.latenciesMs, 0.99);
    std::printf("%-18s %7.0f scen/s  p50 %8.1f ms  p99 %8.1f ms  "
                "wall %8.1f ms%s\n",
                phase, perSec, p50, p99, res.wallMs,
                res.failures ? "  [FAILURES]" : "");
    char buf[352];
    std::snprintf(
        buf, sizeof(buf),
        "{ \"bench\": \"service_throughput\", \"phase\": \"%s\", "
        "\"clients\": %zu, \"scenarios\": %zu, \"wall_ms\": %.1f, "
        "\"scenarios_per_sec\": %.1f, \"p50_ms\": %.1f, "
        "\"p99_ms\": %.1f, \"failures\": %zu }",
        phase, clients, perClient, res.wallMs, perSec, p50, p99,
        res.failures);
    bench::appendBenchLine(buf);
    return perSec;
}

/** Fresh scratch directory for the disk tier. */
std::string
makeCacheDir()
{
    char tmpl[] = "/tmp/gpm_bench_cache_XXXXXX";
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

// ===============================================================
// Act 2: transport scale
// ===============================================================

constexpr std::size_t kWarmSet = 16;

/** One of the fixed warm-set scenarios (16 distinct budgets). */
std::string
warmScenarioJson(std::size_t v)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"combo\":[\"mcf\",\"crafty\"],"
                  "\"policy\":\"MaxBIPS\",\"budget\":%.6f}",
                  0.60 + 0.02 * static_cast<double>(v % kWarmSet));
    return buf;
}

std::string
warmSubmitLine(std::size_t conn, std::size_t k)
{
    return "{\"id\":\"s" + std::to_string(conn) + "-" +
        std::to_string(k) + "\",\"verb\":\"submit\","
        "\"scenario\":" + warmScenarioJson(conn + k) + "}\n";
}

/** Compute the warm set once so the transport phases are pure
 *  cache hits (the measurement is the serving path). */
void
warmScenarios(ScenarioService &svc)
{
    std::atomic<std::size_t> done{0};
    for (std::size_t v = 0; v < kWarmSet; v++) {
        auto parsed = json::parse(warmScenarioJson(v));
        auto spec = parseScenario(parsed.value());
        if (!spec.ok())
            fatal("warm scenario %zu: %s", v,
                  spec.error().c_str());
        svc.submitAsync(
            spec.value(),
            [&done](ScenarioService::Response &&) { done++; }, 0);
    }
    while (done.load() < kWarmSet)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

/**
 * The pre-reactor architecture, reproduced: a blocking accept loop
 * that spawns one reader thread per connection, each with a
 * buffered rdbuf readLine and mutex-serialized blocking writes.
 * Serves the same ScenarioService so tpc-baseline and
 * reactor-sustained differ only in transport.
 */
class TpcServer
{
  public:
    TpcServer(ScenarioService &svc_, TcpListener listener_)
        : svc(svc_), listener(std::move(listener_))
    {
        acceptThr = std::thread([this] { acceptLoop(); });
    }

    ~TpcServer() { stop(); }

    std::uint16_t port() const { return listener.port(); }

    void
    stop()
    {
        listener.shutdownListener();
        if (acceptThr.joinable())
            acceptThr.join();
        {
            std::lock_guard<std::mutex> lock(mtx);
            for (auto &c : conns)
                if (c)
                    c->stream.shutdownBoth();
        }
        for (auto &t : threads)
            if (t.joinable())
                t.join();
        listener.close();
    }

  private:
    struct Conn
    {
        explicit Conn(int fd) : stream(fd) {}
        TcpStream stream;
        std::mutex writeMtx;
        std::mutex pendMtx;
        std::condition_variable cv;
        std::size_t pending = 0;
    };

    void
    acceptLoop()
    {
        for (;;) {
            int fd = listener.acceptFd();
            if (fd < 0)
                return;
            auto conn = std::make_shared<Conn>(fd);
            std::lock_guard<std::mutex> lock(mtx);
            std::uint64_t clientId = ++accepted;
            conns.push_back(conn);
            threads.emplace_back(&TpcServer::serve, this,
                                 std::move(conn), clientId);
        }
    }

    void
    serve(std::shared_ptr<Conn> conn, std::uint64_t clientId)
    {
        std::string line;
        while (conn->stream.readLine(line) ==
               TcpStream::ReadStatus::Line) {
            auto parsed = json::parse(line);
            if (!parsed.ok() || !parsed.value().isObject())
                continue;
            const json::Value *id = parsed.value().find("id");
            const json::Value *scen =
                parsed.value().find("scenario");
            if (!id || !scen)
                continue;
            auto spec = parseScenario(*scen);
            if (!spec.ok())
                continue;
            {
                std::lock_guard<std::mutex> lock(conn->pendMtx);
                conn->pending++;
            }
            std::string idTxt = id->dump();
            svc.submitAsync(
                spec.value(),
                [conn, idTxt](ScenarioService::Response &&r) {
                    std::string out = "{\"id\":" + idTxt +
                        ",\"ok\":" + (r.ok ? "true" : "false");
                    if (r.ok) {
                        out += ",\"cached\":";
                        out += r.cacheHit ? "true" : "false";
                        out += ",\"result\":" + r.payload;
                    }
                    out += "}\n";
                    {
                        std::lock_guard<std::mutex> lock(
                            conn->writeMtx);
                        conn->stream.writeAll(out);
                    }
                    {
                        std::lock_guard<std::mutex> lock(
                            conn->pendMtx);
                        conn->pending--;
                    }
                    conn->cv.notify_all();
                },
                clientId);
        }
        std::unique_lock<std::mutex> lock(conn->pendMtx);
        conn->cv.wait(lock, [&] { return conn->pending == 0; });
    }

    ScenarioService &svc;
    TcpListener listener;
    std::thread acceptThr;
    std::mutex mtx;
    std::uint64_t accepted = 0;
    std::vector<std::shared_ptr<Conn>> conns;
    std::vector<std::thread> threads;
};

/**
 * Single-threaded epoll client driver: holds nConns sockets at
 * once, pipelines each connection's payload, frames responses with
 * the same LineScanner the server uses, and records one latency
 * per response (phase-relative, like runClient). A client that
 * cannot scale past its own thread count would make the 5000-conn
 * claim meaningless — this one is O(1) threads.
 */
PhaseResult
driveConns(std::uint16_t port, std::size_t nConns,
           std::size_t perConn,
           const std::function<std::string(std::size_t)> &payload)
{
    struct CConn
    {
        int fd = -1;
        std::string sendBuf;
        std::size_t sendOff = 0;
        LineScanner in;
        std::size_t expect = 0;
        std::size_t got = 0;
        bool done = false;
    };

    PhaseResult res;
    std::vector<CConn> conns(nConns);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

    // Connect in paced waves so the SYN backlog is never the thing
    // being measured (somaxconn bounds it system-wide).
    const std::size_t kWave = 512;
    for (std::size_t w = 0; w < nConns; w += kWave) {
        std::size_t end = std::min(nConns, w + kWave);
        for (std::size_t i = w; i < end; i++) {
            int fd = ::socket(AF_INET,
                              SOCK_STREAM | SOCK_NONBLOCK |
                                  SOCK_CLOEXEC,
                              0);
            if (fd < 0)
                fatal("bench client: socket: %s",
                      std::strerror(errno));
            if (::connect(fd,
                          reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) != 0 &&
                errno != EINPROGRESS)
                fatal("bench client: connect (conn %zu): %s", i,
                      std::strerror(errno));
            conns[i].fd = fd;
        }
        for (std::size_t i = w; i < end; i++) {
            pollfd p{conns[i].fd, POLLOUT, 0};
            if (::poll(&p, 1, 30000) != 1)
                fatal("bench client: connect timeout (conn %zu)",
                      i);
            int err = 0;
            socklen_t el = sizeof(err);
            ::getsockopt(conns[i].fd, SOL_SOCKET, SO_ERROR, &err,
                         &el);
            if (err != 0)
                fatal("bench client: connect (conn %zu): %s", i,
                      std::strerror(err));
        }
    }

    int ep = ::epoll_create1(EPOLL_CLOEXEC);
    if (ep < 0)
        fatal("bench client: epoll_create1: %s",
              std::strerror(errno));
    for (std::size_t i = 0; i < nConns; i++) {
        conns[i].sendBuf = payload(i);
        conns[i].expect = perConn;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = i;
        ::epoll_ctl(ep, EPOLL_CTL_ADD, conns[i].fd, &ev);
    }

    std::size_t remaining = nConns;
    bench::WallTimer timer;

    auto finish = [&](CConn &c) {
        ::epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
        ::close(c.fd);
        c.fd = -1;
        c.done = true;
        remaining--;
    };
    // Returns false when the connection broke mid-send.
    auto tryWrite = [&](CConn &c, std::size_t idx) {
        while (c.sendOff < c.sendBuf.size()) {
            ssize_t n = ::send(c.fd, c.sendBuf.data() + c.sendOff,
                               c.sendBuf.size() - c.sendOff,
                               MSG_NOSIGNAL);
            if (n > 0) {
                c.sendOff += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 &&
                (errno == EAGAIN || errno == EWOULDBLOCK)) {
                epoll_event ev{};
                ev.events = EPOLLIN | EPOLLOUT;
                ev.data.u64 = idx;
                ::epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &ev);
                return true;
            }
            return false;
        }
        return true;
    };

    for (std::size_t i = 0; i < nConns; i++)
        if (!tryWrite(conns[i], i)) {
            res.failures += conns[i].expect;
            finish(conns[i]);
        }

    epoll_event evs[256];
    while (remaining > 0) {
        int n = ::epoll_wait(ep, evs, 256, 60000);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("bench client: epoll_wait: %s",
                  std::strerror(errno));
        }
        if (n == 0)
            fatal("bench client: stalled with %zu connections "
                  "unanswered",
                  remaining);
        for (int e = 0; e < n; e++) {
            std::size_t idx =
                static_cast<std::size_t>(evs[e].data.u64);
            CConn &c = conns[idx];
            if (c.done)
                continue;
            if (evs[e].events & EPOLLOUT) {
                if (!tryWrite(c, idx)) {
                    res.failures += c.expect - c.got;
                    finish(c);
                    continue;
                }
                if (c.sendOff == c.sendBuf.size()) {
                    epoll_event ev{};
                    ev.events = EPOLLIN;
                    ev.data.u64 = idx;
                    ::epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &ev);
                }
            }
            if (!(evs[e].events &
                  (EPOLLIN | EPOLLHUP | EPOLLERR)))
                continue;
            for (;;) {
                char *p = c.in.writePtr(4096);
                ssize_t r =
                    ::recv(c.fd, p, c.in.writeCapacity(), 0);
                if (r > 0) {
                    c.in.commit(static_cast<std::size_t>(r));
                    std::string_view line;
                    while (c.in.next(line, 1 << 20) ==
                           LineScanner::Scan::Line) {
                        c.got++;
                        res.latenciesMs.push_back(timer.ms());
                        if (line.find("\"ok\":true") ==
                            std::string_view::npos)
                            res.failures++;
                    }
                    if (c.got >= c.expect) {
                        finish(c);
                        break;
                    }
                    continue;
                }
                if (r < 0 && errno == EINTR)
                    continue;
                if (r < 0 &&
                    (errno == EAGAIN || errno == EWOULDBLOCK))
                    break;
                // EOF or error before the full response set.
                res.failures += c.expect - c.got;
                finish(c);
                break;
            }
        }
    }
    res.wallMs = timer.ms();
    ::close(ep);
    std::sort(res.latenciesMs.begin(), res.latenciesMs.end());
    return res;
}

std::function<std::string(std::size_t)>
sustainedPayload(std::size_t perConn)
{
    return [perConn](std::size_t conn) {
        std::string p;
        for (std::size_t k = 0; k < perConn; k++)
            p += warmSubmitLine(conn, k);
        return p;
    };
}

/** Connect / one submit / close, in waves: accept-path churn. */
PhaseResult
driveChurn(std::uint16_t port, std::size_t totalConns,
           std::size_t waveSize)
{
    PhaseResult res;
    bench::WallTimer wall;
    std::size_t launched = 0;
    while (launched < totalConns) {
        std::size_t wave =
            std::min(waveSize, totalConns - launched);
        std::size_t base = launched;
        PhaseResult w = driveConns(
            port, wave, 1, [base](std::size_t conn) {
                return warmSubmitLine(base + conn, 0);
            });
        res.failures += w.failures;
        res.latenciesMs.insert(res.latenciesMs.end(),
                               w.latenciesMs.begin(),
                               w.latenciesMs.end());
        launched += wave;
    }
    res.wallMs = wall.ms();
    std::sort(res.latenciesMs.begin(), res.latenciesMs.end());
    return res;
}

} // namespace

int
main()
{
    std::size_t clients = envSize("GPM_BENCH_CLIENTS", 4);
    std::size_t perClient = envSize("GPM_BENCH_SCENARIOS", 8);
    std::size_t reactorConns =
        envSize("GPM_BENCH_REACTOR_CONNS", 5000);
    std::size_t tpcConns = envSize(
        "GPM_BENCH_TPC_CONNS",
        reactorConns >= 5 ? reactorConns / 5 : 1);
    std::size_t connScenarios =
        envSize("GPM_BENCH_CONN_SCENARIOS", 8);
    std::size_t churnConns =
        envSize("GPM_BENCH_CHURN_CONNS", 2000);

    bench::banner("Serving-path throughput",
                  "pipelined clients against an in-process gpmd: "
                  "cache hierarchy, then transport scale");
    std::printf("%zu clients x %zu scenarios each\n", clients,
                perClient);
    raiseFdLimit();

    bench::Env env;
    std::string cacheDir = makeCacheDir();

    ServiceOptions opts;
    opts.workers = 2;
    opts.queueCapacity = clients * perClient + 8;
    opts.sweepConcurrency = 1;
    opts.cacheDir = cacheDir;

    {
        ScenarioService svc(env.lib, env.dvfs, opts);
        Daemon gpmd(svc);
        report("cold", clients, perClient,
               runPhase(gpmd.port(), clients, perClient));
        report("warm-memory", clients, perClient,
               runPhase(gpmd.port(), clients, perClient));
    }
    {
        // Fresh daemon over the same cache directory: memory tier
        // empty, disk tier warm.
        ScenarioService svc(env.lib, env.dvfs, opts);
        {
            Daemon gpmd(svc);
            report("warm-disk", clients, perClient,
                   runPhase(gpmd.port(), clients, perClient));
        }
        ServiceStats s = svc.stats();
        std::printf("\nwarm-disk daemon: diskHits=%llu "
                    "cacheMisses=%llu\n",
                    static_cast<unsigned long long>(s.diskHits),
                    static_cast<unsigned long long>(s.cacheMisses));
    }
    removeTree(cacheDir);

    // ---- Act 2: transport scale ----
    std::printf("\ntransport: %zu tpc conns vs %zu reactor conns "
                "x %zu submits, %zu churn conns\n",
                tpcConns, reactorConns, connScenarios, churnConns);

    ServiceOptions topts;
    topts.workers = 2;
    topts.queueCapacity = 64;
    topts.sweepConcurrency = 1;
    ScenarioService tsvc(env.lib, env.dvfs, topts);
    warmScenarios(tsvc);

    double tpcPerSec = 0.0, reactorPerSec = 0.0;

    {
        auto listener =
            TcpListener::listenOn("127.0.0.1", 0, 4096);
        if (!listener.ok())
            fatal("listen: %s", listener.error().c_str());
        TpcServer server(tsvc, std::move(listener.value()));
        PhaseResult r = driveConns(server.port(), tpcConns,
                                   connScenarios,
                                   sustainedPayload(connScenarios));
        tpcPerSec =
            report("tpc-baseline", tpcConns, connScenarios, r);
        server.stop();
    }
    {
        Daemon gpmd(tsvc);
        PhaseResult r = driveConns(gpmd.port(), reactorConns,
                                   connScenarios,
                                   sustainedPayload(connScenarios));
        reactorPerSec = report("reactor-sustained", reactorConns,
                               connScenarios, r);
        report("reactor-churn", churnConns, 1,
               driveChurn(gpmd.port(), churnConns, 500));
    }

    double ratio =
        tpcPerSec > 0.0 ? reactorPerSec / tpcPerSec : 0.0;
    std::printf("\nreactor vs thread-per-connection: %.0fx "
                "connections, %.2fx warm scenarios/sec\n",
                tpcConns ? static_cast<double>(reactorConns) /
                        static_cast<double>(tpcConns)
                         : 0.0,
                ratio);

    if (totalFailures > 0)
        fatal("%zu requests failed across the phases",
              totalFailures);
    const char *noEnforce = std::getenv("GPM_BENCH_NO_ENFORCE");
    bool enforce = !(noEnforce && *noEnforce == '1');
    if (enforce && reactorConns >= 5000 && ratio < 1.5)
        fatal("reactor warm throughput only %.2fx the "
              "thread-per-connection baseline (need >= 1.5x)",
              ratio);
    return 0;
}
