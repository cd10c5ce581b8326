/** @file gpmd's protocol layer over real loopback sockets: an
 *  in-process GpmServer on an ephemeral port driven with TcpStream —
 *  ping/stats/submit verbs, byte-identical cached resubmits, the
 *  wire fields of shed and degraded submits, malformed-line
 *  rejection, and graceful stop. */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "harness.hh"

namespace gpm
{
namespace
{

using test::parseOk;
using test::roundTrip;

class ServerTest : public ::testing::Test
{
  protected:
    void SetUp() override { gpmd.start(); }

    test::Gpmd gpmd;
};

TEST_F(ServerTest, PingEchoesIdAndPongs)
{
    TcpStream c = gpmd.connect();
    json::Value r =
        parseOk(roundTrip(c, R"({"id": 7, "verb": "ping"})"));
    EXPECT_TRUE(r.find("ok")->asBool());
    EXPECT_EQ(r.find("id")->asNumber(), 7.0);
    EXPECT_TRUE(r.find("result")->find("pong")->asBool());
}

TEST_F(ServerTest, SubmitThenCachedResubmitIsByteIdentical)
{
    const std::string submit =
        R"({"id": "a", "verb": "submit", "scenario": )"
        R"({"combo": ["mcf"], "policy": "MaxBIPS", )"
        R"("budget": 0.8}})";

    TcpStream c = gpmd.connect();
    std::string first_line = roundTrip(c, submit);
    json::Value first = parseOk(first_line);
    ASSERT_TRUE(first.find("ok")->asBool()) << first_line;
    EXPECT_FALSE(first.find("cached")->asBool());
    const json::Value *result = first.find("result");
    ASSERT_TRUE(result);
    EXPECT_TRUE(result->find("results")->isArray());

    // Resubmit on a second connection: served from cache with an
    // identical "result" field (the line differs only in "cached").
    TcpStream c2 = gpmd.connect();
    json::Value second = parseOk(roundTrip(c2, submit));
    ASSERT_TRUE(second.find("ok")->asBool());
    EXPECT_TRUE(second.find("cached")->asBool());
    EXPECT_EQ(second.find("result")->canonical(),
              result->canonical());

    // The stats verb sees the hit.
    json::Value stats = parseOk(
        roundTrip(c, R"({"verb": "stats"})"));
    const json::Value *sr = stats.find("result");
    ASSERT_TRUE(sr);
    EXPECT_EQ(sr->find("cacheHits")->asNumber(), 1.0);
    EXPECT_EQ(sr->find("cacheMisses")->asNumber(), 1.0);
    EXPECT_EQ(sr->find("served")->asNumber(), 2.0);
    EXPECT_GE(sr->find("uptimeSec")->asNumber(), 0.0);
    EXPECT_GE(sr->find("connections")->asNumber(), 2.0);
}

TEST_F(ServerTest, ShedAndDegradedSubmitsCarryTheirWireFields)
{
    // Teach admission that exact MaxBIPS takes ~60 s and the ladder
    // floor ~1 ms, and build the profiles before any deadline runs.
    AdmissionController &ac = gpmd.svc->admissionController();
    ac.recordService("MaxBIPS", 60000.0);
    ac.recordService("WaterFill", 1.0);
    test::profiles().get("mcf");
    test::profiles().get("crafty");
    auto submit = [](const char *budget, const char *deadline_ms) {
        return std::string(R"({"verb": "submit", "scenario": )"
                           R"({"combo": ["mcf", "crafty"], )"
                           R"("policy": "MaxBIPS", "budget": )") +
            budget + R"(, "deadlineMs": )" + deadline_ms + "}}";
    };
    TcpStream c = gpmd.connect();

    // Not even the floor meets 0.5 ms: shed at admission, with a
    // backoff hint.
    json::Value shed = parseOk(roundTrip(c, submit("0.7", "0.5")));
    EXPECT_FALSE(shed.find("ok")->asBool());
    const json::Value *err = shed.find("error");
    ASSERT_TRUE(err);
    EXPECT_EQ(err->find("code")->asString(), "rejected_overload");
    ASSERT_TRUE(err->find("retryAfterMs"));
    EXPECT_GT(err->find("retryAfterMs")->asNumber(), 0.0);

    // 5 s passes admission (the floor could meet it), but exact
    // MaxBIPS predictably blows it: served one rung down, marked.
    std::string line = roundTrip(c, submit("0.8", "5000"));
    json::Value served = parseOk(line);
    ASSERT_TRUE(served.find("ok")->asBool()) << line;
    const json::Value *deg = served.find("degraded");
    ASSERT_TRUE(deg) << line;
    EXPECT_EQ(deg->find("from")->asString(), "MaxBIPS");
    EXPECT_EQ(deg->find("to")->asString(), "MaxBIPS-DP");
    EXPECT_EQ(deg->find("reason")->asString(), "deadline");

    json::Value stats = parseOk(roundTrip(c, R"({"verb": "stats"})"));
    const json::Value *sr = stats.find("result");
    ASSERT_TRUE(sr);
    EXPECT_EQ(sr->find("shedOverload")->asNumber(), 1.0);
    EXPECT_EQ(sr->find("degradedRequests")->asNumber(), 1.0);
}

TEST_F(ServerTest, MalformedAndInvalidLinesGetStructuredErrors)
{
    TcpStream c = gpmd.connect();

    json::Value r = parseOk(roundTrip(c, "{nonsense"));
    EXPECT_FALSE(r.find("ok")->asBool());
    EXPECT_EQ(r.find("error")->find("code")->asString(), "parse");

    r = parseOk(roundTrip(c, R"({"verb": "frobnicate"})"));
    EXPECT_EQ(r.find("error")->find("code")->asString(),
              "invalid");

    r = parseOk(roundTrip(c, R"({"verb": "submit"})"));
    EXPECT_EQ(r.find("error")->find("code")->asString(),
              "invalid");

    r = parseOk(roundTrip(
        c, R"({"verb": "submit", "scenario": )"
           R"({"combo": ["mcf"], "policy": "Nope", )"
           R"("budget": 0.8}})"));
    EXPECT_EQ(r.find("error")->find("code")->asString(),
              "invalid");
    EXPECT_NE(r.find("error")->find("message")->asString().find(
                  "Nope"),
              std::string::npos);

    r = parseOk(roundTrip(c, R"({"verb": "ping", "extra": 1})"));
    EXPECT_EQ(r.find("error")->find("code")->asString(),
              "invalid");

    // The connection survives every error and still pings.
    r = parseOk(roundTrip(c, R"({"verb": "ping"})"));
    EXPECT_TRUE(r.find("ok")->asBool());

    // Each of the four invalid lines is counted once.
    r = parseOk(roundTrip(c, R"({"verb": "stats"})"));
    EXPECT_EQ(r.find("result")->find("invalid")->asNumber(), 4.0);
}

TEST_F(ServerTest, MultipleRequestsPerConnectionAndCounters)
{
    TcpStream c = gpmd.connect();
    for (int i = 0; i < 3; i++) {
        json::Value r =
            parseOk(roundTrip(c, R"({"verb": "ping"})"));
        EXPECT_TRUE(r.find("ok")->asBool());
    }
    EXPECT_GE(gpmd.server->requestCount(), 3u);
    EXPECT_GE(gpmd.server->connectionCount(), 1u);
}

TEST_F(ServerTest, DrainDeliversInFlightResponseAndClosesIdleConn)
{
    // One connection that goes silent...
    TcpStream idle = gpmd.connect();
    // ...while another holds a submit in flight.
    TcpStream busy = gpmd.connect();
    ASSERT_TRUE(busy.writeAll(
        R"({"id": "inflight", "verb": "submit", "scenario": )"
        R"({"combo": ["mcf"], "policy": "MaxBIPS", )"
        R"("budget": 0.8}})"
        "\n"));
    // Wait until the request is queued or being computed, so the
    // drain genuinely races live work.
    for (int i = 0; i < 5000; i++) {
        ServiceStats s = gpmd.svc->stats();
        if (s.inFlight > 0 || s.queueDepth > 0 || s.served > 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // The SIGTERM path: stop accepting, then drain.
    gpmd.stop();

    // The in-flight submit was answered before its socket closed.
    std::string response;
    ASSERT_EQ(busy.readLine(response),
              TcpStream::ReadStatus::Line);
    json::Value r = parseOk(response);
    EXPECT_TRUE(r.find("ok")->asBool()) << response;

    // The idle connection was shut down, not left hanging.
    std::string none;
    EXPECT_EQ(idle.readLine(none), TcpStream::ReadStatus::Eof);
}

TEST_F(ServerTest, ShutdownVerbStopsAcceptLoop)
{
    TcpStream c = gpmd.connect();
    json::Value r =
        parseOk(roundTrip(c, R"({"verb": "shutdown"})"));
    EXPECT_TRUE(r.find("ok")->asBool());
    EXPECT_TRUE(r.find("result")->find("stopping")->asBool());
    // The accept loop exits on its own.
    gpmd.join();
}

} // namespace
} // namespace gpm
