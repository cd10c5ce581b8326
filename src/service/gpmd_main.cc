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

// Transport settings: listen(2) backlog (clamped by the kernel's
// net.core.somaxconn), and the idle-reap and write-progress timeouts
// (docs/ROBUSTNESS.md).
constexpr int kListenBacklog = 1024;
constexpr int kIdleTimeoutMs = 60000;
constexpr int kWriteTimeoutMs = 30000;

/** Listener fd for the async-signal-safe shutdown handler. */
int g_listen_fd = -1;

void
onSignal(int)
{
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
    gpm::ServiceOptions service;
    double scale = 1.0;
    /** Non-empty: per-workload content-addressed profile store
     *  directory; the suite is prewarmed into/from it in the
     *  background while the daemon serves. Empty: build profiles
     *  lazily per combo. */
    std::string profileCacheDir;
    /** Fault-injection spec (GPMD_FAULT); empty = off. */
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
        "  --workers N        queue worker threads (default 2)\n"
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
        "GPMD_FAULT=SPEC arms fault injection (e.g.\n"
        "worker-throw:0.5,seed:42 — see docs/ROBUSTNESS.md).\n",
        argv0);
}

DaemonConfig
parseArgs(int argc, char **argv)
{
    DaemonConfig cfg;
    if (const char *s = std::getenv("GPM_SCALE"); s && *s)
        cfg.scale = gpm::scaleFlag("GPM_SCALE", s);
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
        } else if (a == "--workers")
            num(cfg.service.workers);
        else if (a == "--cache-dir")
            cfg.service.cacheDir = need(i), i++;
        else if (a == "--cache-disk-bytes")
            num(cfg.service.cacheDiskBytes);
        else if (a == "--scale")
            cfg.scale = gpm::scaleFlag(argv[i], need(i)), i++;
        else if (a == "--profile-cache-dir")
            cfg.profileCacheDir = need(i), i++;
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
            gpm::fatal("gpmd: GPMD_FAULT: %s", err->c_str());
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
        // tuning: one knob set governs both failure domains (they
        // open and close independently).
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
    auto listener =
        gpm::TcpListener::listenOn(cfg.host, cfg.port, kListenBacklog);
    if (!listener.ok())
        gpm::fatal("gpmd: %s", listener.error().c_str());

    gpm::GpmServer server(svc, std::move(listener.value()),
                          {.idleTimeoutMs = kIdleTimeoutMs,
                           .writeTimeoutMs = kWriteTimeoutMs});
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
