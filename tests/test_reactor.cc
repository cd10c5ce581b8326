/** @file The epoll reactor transport: LineScanner framing (split
 *  reads, CRLF, overflow, fuzz vs the old rdbuf reader), the
 *  /metrics + /healthz HTTP surface, multi-reactor serving, and
 *  pipelined bursts over real loopback sockets. */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "harness.hh"
#include "service/line_scanner.hh"
#include "util/fault.hh"

namespace gpm
{
namespace
{

// ---------------------------------------------------------------
// LineScanner unit tests
// ---------------------------------------------------------------

/** Feed @p chunk and collect every complete line framed so far. */
std::vector<std::string>
scanFeed(LineScanner &sc, std::string_view chunk,
         std::size_t maxLine = 1 << 20)
{
    char *p = sc.writePtr(chunk.size() ? chunk.size() : 1);
    std::memcpy(p, chunk.data(), chunk.size());
    sc.commit(chunk.size());
    std::vector<std::string> lines;
    std::string_view v;
    while (sc.next(v, maxLine) == LineScanner::Scan::Line)
        lines.emplace_back(v);
    return lines;
}

/**
 * The old TcpStream::readLine framing, verbatim: append to a
 * string rdbuf, find('\n'), erase(0, nl + 1), strip one trailing
 * '\r'. The fuzz test below asserts the zero-copy scanner yields a
 * byte-identical request stream.
 */
struct RdbufReader
{
    std::string rdbuf;

    std::vector<std::string>
    feed(std::string_view chunk)
    {
        rdbuf.append(chunk);
        std::vector<std::string> lines;
        for (;;) {
            std::size_t nl = rdbuf.find('\n');
            if (nl == std::string::npos)
                break;
            std::string line = rdbuf.substr(0, nl);
            rdbuf.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            lines.push_back(std::move(line));
        }
        return lines;
    }
};

TEST(LineScannerTest, SplitAcrossEveryReadBoundary)
{
    const std::string stream = "alpha\nbeta gamma\n\ndelta\n";
    const std::vector<std::string> want = {"alpha", "beta gamma",
                                           "", "delta"};
    for (std::size_t cut = 0; cut <= stream.size(); cut++) {
        LineScanner sc;
        std::vector<std::string> got =
            scanFeed(sc, std::string_view(stream).substr(0, cut));
        for (auto &l :
             scanFeed(sc, std::string_view(stream).substr(cut)))
            got.push_back(std::move(l));
        EXPECT_EQ(got, want) << "split at " << cut;
        EXPECT_EQ(sc.buffered(), 0u);
    }
}

TEST(LineScannerTest, CrlfIsTolerated)
{
    LineScanner sc;
    auto got = scanFeed(sc, "crlf\r\nbare\ninner\rkept\r\n");
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], "crlf");
    EXPECT_EQ(got[1], "bare");
    // Only ONE trailing '\r' is stripped; an interior '\r' is data.
    EXPECT_EQ(got[2], "inner\rkept");
}

TEST(LineScannerTest, CrLfSplitBetweenReads)
{
    LineScanner sc;
    EXPECT_TRUE(scanFeed(sc, "line\r").empty());
    auto got = scanFeed(sc, "\nnext\n");
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], "line");
    EXPECT_EQ(got[1], "next");
}

TEST(LineScannerTest, ManyLinesInOneRead)
{
    LineScanner sc;
    std::string burst;
    for (int i = 0; i < 1000; i++)
        burst += "line-" + std::to_string(i) + "\n";
    auto got = scanFeed(sc, burst);
    ASSERT_EQ(got.size(), 1000u);
    EXPECT_EQ(got[0], "line-0");
    EXPECT_EQ(got[999], "line-999");
    EXPECT_EQ(sc.buffered(), 0u);
    EXPECT_GE(sc.highWater(), burst.size());
}

TEST(LineScannerTest, OverflowMidBufferAndRecoveryViaReset)
{
    const std::size_t kMax = 64;
    LineScanner sc;
    std::string_view v;

    // A good line followed by the head of a monster one, arriving
    // in the same read: the good line frames, then the partial
    // overrun reports Overflow once enough is buffered.
    auto got = scanFeed(sc, "good\n" + std::string(50, 'x'), kMax);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], "good");
    EXPECT_EQ(sc.next(v, kMax), LineScanner::Scan::NeedMore);

    std::string more(40, 'x'); // 90 buffered > 64, still no '\n'
    std::memcpy(sc.writePtr(more.size()), more.data(),
                more.size());
    sc.commit(more.size());
    EXPECT_EQ(sc.next(v, kMax), LineScanner::Scan::Overflow);

    // The caller answers once, closes, and resets; the scanner is
    // reusable for a fresh connection.
    sc.reset();
    EXPECT_EQ(sc.buffered(), 0u);
    auto after = scanFeed(sc, "back\n", kMax);
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0], "back");
}

TEST(LineScannerTest, CompleteLineOverCapIsOverflowToo)
{
    const std::size_t kMax = 16;
    LineScanner sc;
    std::string_view v;
    std::string line = std::string(100, 'y') + "\n";
    std::memcpy(sc.writePtr(line.size()), line.data(),
                line.size());
    sc.commit(line.size());
    EXPECT_EQ(sc.next(v, kMax), LineScanner::Scan::Overflow);
}

TEST(LineScannerTest, FuzzRandomChunkingMatchesRdbufReader)
{
    std::mt19937 rng(20260808);
    for (int round = 0; round < 20; round++) {
        // A stream of lines of wildly varying length, with empty
        // lines, CRLF endings and interior '\r' bytes mixed in.
        std::string stream;
        std::uniform_int_distribution<int> lenDist(0, 300);
        std::uniform_int_distribution<int> chDist(32, 126);
        std::uniform_int_distribution<int> coin(0, 3);
        int nLines = 50 + static_cast<int>(rng() % 100);
        for (int i = 0; i < nLines; i++) {
            int len = lenDist(rng);
            for (int j = 0; j < len; j++) {
                char ch = static_cast<char>(chDist(rng));
                if (coin(rng) == 0)
                    ch = '\r'; // interior CR is data
                stream += ch;
            }
            stream += coin(rng) == 0 ? "\r\n" : "\n";
        }

        LineScanner sc;
        RdbufReader ref;
        std::vector<std::string> got, want;
        std::size_t pos = 0;
        while (pos < stream.size()) {
            std::uniform_int_distribution<std::size_t> cut(
                1, std::min<std::size_t>(stream.size() - pos,
                                         round % 2 ? 4096 : 7));
            std::size_t n = cut(rng);
            std::string_view chunk(stream.data() + pos, n);
            pos += n;
            for (auto &l : scanFeed(sc, chunk))
                got.push_back(std::move(l));
            for (auto &l : ref.feed(chunk))
                want.push_back(std::move(l));
        }
        ASSERT_EQ(got, want) << "round " << round;
        EXPECT_EQ(sc.buffered(), ref.rdbuf.size());
    }
}

// ---------------------------------------------------------------
// Reactor server end-to-end
// ---------------------------------------------------------------

using test::roundTrip;

class ReactorServerTest : public ::testing::Test
{
  protected:
    /** One HTTP exchange: request @p target, return status line +
     *  headers + body (readLine-framed, CR stripped). */
    std::string
    httpGet(const std::string &target,
            const std::string &method = "GET")
    {
        TcpStream s = test::connect(gpmd.metricsPort);
        EXPECT_TRUE(s.writeAll(method + " " + target +
                               " HTTP/1.0\r\n"
                               "Host: test\r\n\r\n"));
        std::string all, line;
        for (;;) {
            auto st = s.readLine(line);
            if (st != TcpStream::ReadStatus::Line)
                break;
            all += line;
            all += '\n';
        }
        return all;
    }

    test::Gpmd gpmd;
};

TEST_F(ReactorServerTest, HealthzAnswersOk)
{
    gpmd.start({}, {}, /*metrics=*/true);
    std::string resp = httpGet("/healthz");
    EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos)
        << resp;
    EXPECT_NE(resp.find("\nok\n"), std::string::npos) << resp;
}

TEST_F(ReactorServerTest, MetricsExposesEveryServiceCounter)
{
    gpmd.start({}, {}, /*metrics=*/true);

    // Generate a little traffic first so the transport counters
    // are non-trivially populated.
    TcpStream c = gpmd.connect();
    roundTrip(c, R"({"id":1,"verb":"ping"})");

    std::string resp = httpGet("/metrics");
    EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(resp.find("text/plain; version=0.0.4"),
              std::string::npos)
        << resp;
    // Every ServiceStats field, as rendered by prom.cc.
    for (const char *name : {
             "gpm_served_total", "gpm_cache_hits_total",
             "gpm_cache_misses_total", "gpm_rejected_busy_total",
             "gpm_invalid_total", "gpm_shed_deadline_total",
             "gpm_worker_crashes_total", "gpm_disk_hits_total",
             "gpm_disk_evictions_total",
             "gpm_disk_quarantined_total",
             "gpm_disk_write_failures_total",
             "gpm_cancelled_mid_sweep_total",
             "gpm_cluster_requests_total",
             "gpm_cluster_epochs_total", "gpm_chip_sims_total",
             "gpm_profile_builds_total",
             "gpm_profile_disk_hits_total",
             "gpm_profile_build_ms_total", "gpm_profile_ready",
             "gpm_profile_quarantined_total",
             "gpm_profile_write_failures_total",
             "gpm_shed_overload_total",
             "gpm_degraded_requests_total",
             "gpm_disk_breaker_refusals_total",
             "gpm_disk_breaker_opens_total",
             "gpm_profile_breaker_refusals_total",
             "gpm_profile_breaker_opens_total",
             "gpm_breaker_state", "gpm_workers_alive",
             "gpm_queue_depth", "gpm_in_flight", "gpm_cache_size",
             "gpm_disk_entries", "gpm_disk_bytes",
             "gpm_uptime_seconds", "gpm_cache_hit_rate",
             // reactor transport
             "gpm_connections_total", "gpm_requests_total",
             "gpm_idle_reaped_total", "gpm_line_too_long_total",
             "gpm_epoll_wakeups_total", "gpm_bytes_in_total",
             "gpm_bytes_out_total", "gpm_accept_sheds_total",
             "gpm_open_connections",
             "gpm_ring_buffer_high_water",
             "gpm_reactor_threads",
         })
        EXPECT_NE(resp.find(name), std::string::npos)
            << "missing metric " << name;

    // The ping above must be visible in the transport counters.
    EXPECT_NE(resp.find("gpm_requests_total 1"),
              std::string::npos)
        << resp;
    // Exactly one state sample per breaker is 1.
    EXPECT_NE(
        resp.find("gpm_breaker_state{breaker=\"disk\","
                  "state=\"closed\"} 1"),
        std::string::npos);

    // The NDJSON plane keeps serving after the scrape.
    EXPECT_NE(roundTrip(c, R"({"verb":"ping"})").find("\"pong\":true"),
              std::string::npos);

    // A request the server rejects as invalid is counted.
    roundTrip(c, R"({"verb":"frobnicate"})");
    EXPECT_NE(httpGet("/metrics").find("gpm_invalid_total 1"),
              std::string::npos);
}

TEST_F(ReactorServerTest, DiskWriteFailuresReachStatsAndMetrics)
{
    test::TempDir cacheDir;
    ServiceOptions svcOpts;
    svcOpts.cacheDir = cacheDir.path();
    gpmd.start(svcOpts, {}, /*metrics=*/true);

    // The write-through of a computed result fails: the response is
    // served all the same, and the lost persistence is counted.
    ASSERT_FALSE(fault::arm("disk-write-fail"));
    TcpStream c = gpmd.connect();
    std::string resp =
        roundTrip(c, R"({"id":1,"verb":"submit","scenario":)"
                     R"({"combo":["mcf","crafty"],)"
                     R"("policy":"WaterFill","budget":0.8}})");
    fault::disarm();
    EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;

    std::string stats = roundTrip(c, R"({"id":2,"verb":"stats"})");
    EXPECT_NE(stats.find("\"diskWriteFailures\":1"),
              std::string::npos)
        << stats;
    EXPECT_NE(stats.find("\"profileWriteFailures\":0"),
              std::string::npos)
        << stats;
    EXPECT_NE(httpGet("/metrics").find(
                  "gpm_disk_write_failures_total 1"),
              std::string::npos);
}

TEST_F(ReactorServerTest, MetricsSurfaceRejectsOtherRequests)
{
    gpmd.start({}, {}, /*metrics=*/true);
    EXPECT_NE(httpGet("/nope").find("HTTP/1.0 404"),
              std::string::npos);
    EXPECT_NE(httpGet("/metrics", "POST").find("HTTP/1.0 405"),
              std::string::npos);
}

TEST_F(ReactorServerTest, RequestSplitAcrossManyWritesFrames)
{
    gpmd.start();
    TcpStream c = gpmd.connect();
    const std::string req = R"({"id":7,"verb":"ping"})"
                            "\n";
    // Dribble the request one byte at a time: the reactor must
    // frame it exactly once, whenever the '\n' finally lands.
    for (char ch : req)
        ASSERT_TRUE(c.writeAll(std::string_view(&ch, 1)));
    std::string response;
    ASSERT_EQ(c.readLine(response), TcpStream::ReadStatus::Line);
    EXPECT_NE(response.find("\"pong\":true"), std::string::npos);
    EXPECT_NE(response.find("\"id\":7"), std::string::npos);
}

TEST_F(ReactorServerTest, PipelinedBurstAnswersEveryRequest)
{
    gpmd.start();
    TcpStream c = gpmd.connect();
    const int kPings = 500;
    std::string burst;
    for (int i = 0; i < kPings; i++)
        burst += "{\"id\":" + std::to_string(i) +
                 ",\"verb\":\"ping\"}\n";
    ASSERT_TRUE(c.writeAll(burst));
    for (int i = 0; i < kPings; i++) {
        std::string response;
        ASSERT_EQ(c.readLine(response),
                  TcpStream::ReadStatus::Line)
            << "response " << i;
        EXPECT_NE(response.find("\"pong\":true"),
                  std::string::npos);
    }
    EXPECT_GE(gpmd.server->requestCount(),
              static_cast<std::uint64_t>(kPings));
}

TEST_F(ReactorServerTest, MultipleReactorThreadsServeConcurrently)
{
    ServerOptions opts;
    opts.reactorThreads = 3;
    gpmd.start({}, opts, /*metrics=*/true);

    const int kConns = 12;
    std::vector<std::thread> clients;
    std::atomic<int> ok{0};
    for (int i = 0; i < kConns; i++)
        clients.emplace_back([&, i] {
            auto conn = TcpStream::connectTo("127.0.0.1", gpmd.port);
            if (!conn.ok())
                return;
            TcpStream s = std::move(conn.value());
            std::string req = "{\"id\":" + std::to_string(i) +
                              ",\"verb\":\"ping\"}\n";
            if (!s.writeAll(req))
                return;
            std::string response;
            if (s.readLine(response) !=
                    TcpStream::ReadStatus::Line ||
                response.find("\"pong\":true") ==
                    std::string::npos)
                return;
            ok++;
        });
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(ok.load(), kConns);
    EXPECT_GE(gpmd.server->connectionCount(),
              static_cast<std::uint64_t>(kConns));

    // The gauge must agree that the threads exist.
    std::string resp = httpGet("/metrics");
    EXPECT_NE(resp.find("gpm_reactor_threads 3"),
              std::string::npos)
        << resp;
}

} // namespace
} // namespace gpm
