/**
 * @file
 * gpmd — the global-power-management scenario daemon.
 *
 * Serves NDJSON scenario requests (see docs/SERVICE.md) over TCP on
 * top of one shared ProfileLibrary. SIGINT/SIGTERM trigger a clean
 * draining shutdown: the accept loop unblocks, queued scenario work
 * finishes, open connections are closed, and the process exits 0.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <sys/socket.h>
#include <thread>

#include "power/dvfs.hh"
#include "util/fault.hh"
#include "util/flags.hh"
#include "service/server.hh"
#include "service/service.hh"
#include "trace/phase_profile.hh"
#include "util/logging.hh"

namespace
{

/** Listener fd for the async-signal-safe shutdown handler. */
volatile std::sig_atomic_t g_stop = 0;
int g_listen_fd = -1;

void
onSignal(int)
{
    g_stop = 1;
    if (g_listen_fd >= 0)
        ::shutdown(g_listen_fd, SHUT_RDWR);
}

struct DaemonConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 7421;
    /** Non-zero: serve GET /metrics and /healthz on this port
     *  (same reactor; 0 = no observability listener). */
    std::uint16_t metricsPort = 0;
    bool metricsPortSet = false;
    int listenBacklog = 1024;
    gpm::ServiceOptions service;
    gpm::ServerOptions server;
    double scale = 1.0;
    /** Non-empty: per-workload content-addressed profile store
     *  directory; the suite is prewarmed into/from it in the
     *  background while the daemon serves. Empty: build profiles
     *  lazily per combo. */
    std::string profileCacheDir;
    /** Fault-injection spec (--fault / GPMD_FAULT); empty = off. */
    std::string faultSpec;
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --host ADDR        bind address (default 127.0.0.1)\n"
        "  --port N           TCP port; 0 = ephemeral (default "
        "7421)\n"
        "  --metrics-port N   serve GET /metrics (Prometheus "
        "text)\n"
        "                     and /healthz on this port; 0 = "
        "ephemeral\n"
        "                     (default: no metrics listener)\n"
        "  --reactor-threads N  epoll event loops serving the\n"
        "                     sockets (default 1)\n"
        "  --listen-backlog N listen(2) backlog (default 1024,\n"
        "                     clamped by net.core.somaxconn)\n"
        "  --workers N        queue worker threads (default 2)\n"
        "  --queue N          queue high-water mark (default 64)\n"
        "  --cache N          LRU result-cache entries (default "
        "128)\n"
        "  --sweep-threads N  threads per sweep; 0 = auto\n"
        "  --cache-dir DIR    persistent result-cache directory\n"
        "                     (unset = memory-only caching)\n"
        "  --cache-disk-bytes N  disk-cache LRU byte budget\n"
        "                     (default 64 MiB; 0 = unbounded)\n"
        "  --scale S          workload length scale (default "
        "GPM_SCALE or 1.0)\n"
        "  --profile-cache-dir DIR  per-workload content-addressed\n"
        "                     profile store (default\n"
        "                     GPM_PROFILE_CACHE_DIR); the suite is\n"
        "                     prewarmed in the background (unset =\n"
        "                     build lazily per request)\n"
        "  --idle-timeout-ms N  reap connections idle this long;\n"
        "                     0 = never (default 60000)\n"
        "  --write-timeout-ms N  per-write progress timeout;\n"
        "                     0 = none (default 30000)\n"
        "  --max-line-bytes N cap on a request line (default 1 MiB;"
        "\n                     longer gets 'line_too_long')\n"
        "  --fault SPEC       arm fault injection (also GPMD_FAULT;"
        "\n                     e.g. worker-throw:0.5,seed:42 — see\n"
        "                     docs/ROBUSTNESS.md)\n"
        "  --overload-off     disable adaptive admission control\n"
        "                     (binary busy/accept only)\n"
        "  --overload-fair-share F  fraction of the queue one\n"
        "                     connection may hold (default 0.5)\n"
        "  --overload-headroom F  safety factor on predicted\n"
        "                     completion vs deadline (default 1.0)\n"
        "  --overload-degrade-depth F  queue-load fraction at/over\n"
        "                     which admissions are flagged\n"
        "                     overloaded (default 0.75)\n"
        "  --degrade-ladder B 1/0: substitute cheaper ladder\n"
        "                     solvers under overload or doomed\n"
        "                     deadlines (default 1)\n"
        "  --breaker-window N failure window of the disk/profile\n"
        "                     circuit breakers (default 16)\n"
        "  --breaker-threshold F  failure rate opening a breaker\n"
        "                     (default 0.5)\n"
        "  --breaker-cooldown-ms N  breaker open->half-open\n"
        "                     cooldown (default 250)\n",
        argv0);
}

DaemonConfig
parseArgs(int argc, char **argv)
{
    DaemonConfig cfg;
    cfg.server.idleTimeoutMs = 60000;
    cfg.server.writeTimeoutMs = 30000;
    if (const char *s = std::getenv("GPM_SCALE"); s && *s) {
        double v = gpm::numericFlag<double>("GPM_SCALE", s);
        cfg.scale = v > 0.0 ? v : 1.0;
    }
    if (const char *s = std::getenv("GPM_PROFILE_CACHE_DIR");
        s && *s)
        cfg.profileCacheDir = s;
    if (const char *s = std::getenv("GPMD_FAULT"); s && *s)
        cfg.faultSpec = s;

    auto need = [&](int i) -> const char * {
        if (i + 1 >= argc)
            gpm::fatal("%s needs a value", argv[i]);
        return argv[i + 1];
    };
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        // The value of a numeric flag, which must fit a T.
        auto num = [&]<typename T>(T &field) {
            field = gpm::numericFlag<T>(argv[i], need(i));
            i++;
        };
        if (a == "--host")
            cfg.host = need(i), i++;
        else if (a == "--port")
            num(cfg.port);
        else if (a == "--metrics-port") {
            num(cfg.metricsPort);
            cfg.metricsPortSet = true;
        } else if (a == "--reactor-threads") {
            long v = 0;
            num(v);
            cfg.server.reactorThreads =
                v > 0 ? static_cast<std::size_t>(v) : 1;
        } else if (a == "--listen-backlog") {
            int v = 0;
            num(v);
            cfg.listenBacklog = v > 0 ? v : 1024;
        }
        else if (a == "--workers")
            num(cfg.service.workers);
        else if (a == "--queue")
            num(cfg.service.queueCapacity);
        else if (a == "--cache")
            num(cfg.service.cacheCapacity);
        else if (a == "--sweep-threads")
            num(cfg.service.sweepConcurrency);
        else if (a == "--cache-dir")
            cfg.service.cacheDir = need(i), i++;
        else if (a == "--cache-disk-bytes")
            num(cfg.service.cacheDiskBytes);
        else if (a == "--scale") {
            double v = 0.0;
            num(v);
            cfg.scale = v > 0.0 ? v : 1.0;
        } else if (a == "--profile-cache-dir")
            cfg.profileCacheDir = need(i), i++;
        else if (a == "--idle-timeout-ms")
            num(cfg.server.idleTimeoutMs);
        else if (a == "--write-timeout-ms")
            num(cfg.server.writeTimeoutMs);
        else if (a == "--max-line-bytes")
            num(cfg.server.maxLineBytes);
        else if (a == "--fault")
            cfg.faultSpec = need(i), i++;
        else if (a == "--overload-off")
            cfg.service.admission.enabled = false;
        else if (a == "--overload-fair-share")
            num(cfg.service.admission.fairShare);
        else if (a == "--overload-headroom")
            num(cfg.service.admission.headroom);
        else if (a == "--overload-degrade-depth")
            num(cfg.service.admission.degradeDepth);
        else if (a == "--degrade-ladder") {
            int v = 0;
            num(v);
            cfg.service.degradeLadder = v != 0;
        } else if (a == "--breaker-window")
            num(cfg.service.resultBreaker.window);
        else if (a == "--breaker-threshold")
            num(cfg.service.resultBreaker.failureThreshold);
        else if (a == "--breaker-cooldown-ms")
            num(cfg.service.resultBreaker.cooldownMs);
        else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            std::exit(0);
        } else
            gpm::fatal("unknown option '%s' (try --help)",
                       a.c_str());
    }
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    DaemonConfig cfg = parseArgs(argc, argv);

    if (!cfg.faultSpec.empty()) {
        if (auto err = gpm::fault::arm(cfg.faultSpec))
            gpm::fatal("gpmd: --fault: %s", err->c_str());
        gpm::warn("gpmd: FAULT INJECTION ARMED (%s)",
                  cfg.faultSpec.c_str());
    }

    gpm::DvfsTable dvfs = gpm::DvfsTable::classic3();
    gpm::ProfileLibrary lib(dvfs, cfg.scale);
    // Prewarm in the background so the listener comes up
    // immediately: submits that need a still-building profile wait
    // on that profile's entry, not on the whole suite.
    std::thread prewarm;
    if (!cfg.profileCacheDir.empty()) {
        // The profile store shares the result cache's breaker
        // tuning: one --breaker-* knob set governs both failure
        // domains (they open and close independently).
        lib.attachStore(cfg.profileCacheDir,
                        cfg.service.resultBreaker);
        gpm::inform("gpmd: prewarming profiles (store %s)",
                    cfg.profileCacheDir.c_str());
        // A failed prewarm must not take the daemon down: catch
        // everything (parallelFor rethrows the first failed build)
        // and fall back to per-entry lazy builds in
        // ProfileLibrary::get().
        prewarm = std::thread([&lib] {
            try {
                lib.buildSuite();
            } catch (const std::exception &e) {
                gpm::warn("gpmd: profile prewarm failed: %s "
                          "(profiles will build lazily per request)",
                          e.what());
            } catch (...) {
                gpm::warn("gpmd: profile prewarm failed (profiles "
                          "will build lazily per request)");
            }
        });
    }

    gpm::ScenarioService svc(lib, dvfs, cfg.service);
    auto listener = gpm::TcpListener::listenOn(
        cfg.host, cfg.port, cfg.listenBacklog);
    if (!listener.ok())
        gpm::fatal("gpmd: %s", listener.error().c_str());

    gpm::GpmServer server(svc, std::move(listener.value()),
                          cfg.server);
    if (cfg.metricsPortSet) {
        auto mlistener = gpm::TcpListener::listenOn(
            cfg.host, cfg.metricsPort, 64);
        if (!mlistener.ok())
            gpm::fatal("gpmd: metrics listener: %s",
                       mlistener.error().c_str());
        server.attachMetricsListener(std::move(mlistener.value()));
    }
    g_listen_fd = server.listenerFd();
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::printf("gpmd: listening on %s:%u\n", cfg.host.c_str(),
                static_cast<unsigned>(server.port()));
    if (server.metricsPort() != 0)
        std::printf("gpmd: metrics on %s:%u\n", cfg.host.c_str(),
                    static_cast<unsigned>(server.metricsPort()));
    std::fflush(stdout);

    server.run();

    std::printf("gpmd: draining\n");
    std::fflush(stdout);
    server.stopAndDrain();
    if (prewarm.joinable())
        prewarm.join();
    std::printf("gpmd: shutdown complete\n");
    return 0;
}
