/**
 * @file
 * The test harness shared by every gtest: the one profile library
 * per scale per process over the build directory's profile store,
 * a bitwise profile comparison, scratch directories that remove
 * themselves, and one in-process gpmd on an ephemeral loopback
 * port.
 */

#ifndef GPM_TESTS_HARNESS_HH
#define GPM_TESTS_HARNESS_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>

#include <gtest/gtest.h>

#include "service/server.hh"
#include "trace/phase_profile.hh"

namespace gpm::test
{

/** The classic 3-mode DVFS table the shared libraries profile
 *  under. */
inline const DvfsTable &
dvfs()
{
    static const DvfsTable table = DvfsTable::classic3();
    return table;
}

/**
 * The process's one ProfileLibrary at @p scale, attached to the test
 * profile store in the build directory (GPM_TEST_PROFILE_STORE, a
 * compile definition), so a profile is built once per build
 * directory rather than once per test process. Rebuilding any
 * library that profiles are computed from empties the store
 * (tests/CMakeLists.txt). Every fixture runs at the default 0.03
 * except the two whose frozen payload digests were recorded at 0.05.
 * Tests that assert build or disk-hit counters, or arm profile-*
 * faults, own a library over a TempDir instead.
 */
inline ProfileLibrary &
profiles(double scale = 0.03)
{
    const DvfsTable &table = dvfs(); // outlives the libraries
    static std::mutex mtx;
    static std::map<double, std::unique_ptr<ProfileLibrary>> libs;
    std::lock_guard<std::mutex> lock(mtx);
    std::unique_ptr<ProfileLibrary> &lib = libs[scale];
    if (!lib) {
        lib = std::make_unique<ProfileLibrary>(table, scale);
        lib->attachStore(GPM_TEST_PROFILE_STORE);
    }
    return *lib;
}

/** True when @p a and @p b are the same profile, bit for bit. */
inline bool
identical(const WorkloadProfile &a, const WorkloadProfile &b)
{
    if (a.name != b.name || a.modes.size() != b.modes.size())
        return false;
    for (std::size_t m = 0; m < a.modes.size(); m++) {
        const ModeProfile &x = a.modes[m], &y = b.modes[m];
        if (x.chunkInsts != y.chunkInsts ||
            x.lastChunkInsts != y.lastChunkInsts ||
            x.chunks.size() != y.chunks.size() ||
            std::memcmp(x.chunks.data(), y.chunks.data(),
                        x.chunks.size() * sizeof(ChunkRecord)) != 0)
            return false;
    }
    return true;
}

/** A fresh directory under /tmp, removed with its contents when the
 *  TempDir goes out of scope. */
class TempDir
{
  public:
    TempDir()
    {
        std::string tmpl = "/tmp/gpm_test_XXXXXX";
        if (!::mkdtemp(tmpl.data()))
            throw std::system_error(errno, std::generic_category(),
                                    "mkdtemp");
        dir = tmpl;
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        EXPECT_FALSE(ec) << "removing " << dir << ": "
                         << ec.message();
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return dir; }

  private:
    std::string dir;
};

/** A connection to loopback @p port (an empty stream, and a failed
 *  expectation, when the connect fails). */
inline TcpStream
connect(std::uint16_t port)
{
    auto conn = TcpStream::connectTo("127.0.0.1", port);
    EXPECT_TRUE(conn.ok()) << (conn.ok() ? "" : conn.error());
    return conn.ok() ? std::move(conn.value()) : TcpStream();
}

/** Send @p line on @p stream; return the response line. */
inline std::string
roundTrip(TcpStream &stream, const std::string &line)
{
    EXPECT_TRUE(stream.writeAll(line + "\n"));
    std::string response;
    EXPECT_EQ(stream.readLine(response), TcpStream::ReadStatus::Line);
    return response;
}

/** @p text as JSON (null, and a failed expectation, when it does not
 *  parse). */
inline json::Value
parseOk(const std::string &text)
{
    auto r = json::parse(text);
    EXPECT_TRUE(r.ok()) << text;
    return r.ok() ? r.value() : json::Value();
}

/**
 * One gpmd in process: a ScenarioService over profiles() and a
 * GpmServer on an ephemeral loopback port, served by its own thread
 * from start() until stop() or a shutdown verb. The destructor stops
 * and drains.
 */
class Gpmd
{
  public:
    Gpmd() = default;
    ~Gpmd() { stop(); }

    Gpmd(const Gpmd &) = delete;
    Gpmd &operator=(const Gpmd &) = delete;

    /** Start serving; @p metrics also opens a /metrics port. */
    void
    start(const ServiceOptions &svcOpts = {},
          const ServerOptions &opts = {}, bool metrics = false)
    {
        auto listener = TcpListener::listenOn("127.0.0.1", 0);
        ASSERT_TRUE(listener.ok()) << listener.error();
        svc = std::make_unique<ScenarioService>(profiles(), dvfs(),
                                                svcOpts);
        server = std::make_unique<GpmServer>(
            *svc, std::move(listener.value()), opts);
        if (metrics) {
            auto ml = TcpListener::listenOn("127.0.0.1", 0);
            ASSERT_TRUE(ml.ok()) << ml.error();
            server->attachMetricsListener(std::move(ml.value()));
            metricsPort = server->metricsPort();
            ASSERT_NE(metricsPort, 0);
        }
        port = server->port();
        ASSERT_NE(port, 0);
        thread = std::thread([this] { server->run(); });
    }

    /** Wait for the serving thread to return (after a shutdown verb
     *  or stop()). */
    void
    join()
    {
        if (thread.joinable())
            thread.join();
    }

    /** Stop accepting, join the serving thread, then drain: owed
     *  responses are delivered and every connection closes.
     *  Idempotent. */
    void
    stop()
    {
        if (!server)
            return;
        server->requestStop();
        join();
        server->stopAndDrain();
    }

    TcpStream connect() const { return test::connect(port); }

    std::unique_ptr<ScenarioService> svc;
    std::unique_ptr<GpmServer> server;
    std::uint16_t port = 0;
    std::uint16_t metricsPort = 0;

  private:
    std::thread thread;
};

} // namespace gpm::test

#endif // GPM_TESTS_HARNESS_HH
