/** @file Chaos harness: every fault point in util/fault.hh armed
 *  in turn against a live ScenarioService / GpmServer over loopback,
 *  asserting graceful degradation — structured errors instead of
 *  dead daemons, crashed workers that keep serving, shed expired
 *  deadlines, reaped idle connections, answered over-long lines, and
 *  payloads that stay bitwise-identical to a direct sweep once the
 *  fault clears. Plus the deterministic backoff schedule gpmctl
 *  retries on. */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "harness.hh"
#include "util/fault.hh"
#include "util/backoff.hh"

namespace gpm
{
namespace
{

void
sleepMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// ---------------------------------------------------------------
// BackoffSchedule: the client-side half of the resilience story.
// ---------------------------------------------------------------

TEST(Backoff, SameSeedReplaysSameDelays)
{
    BackoffSchedule a(50.0, 2000.0, 42);
    BackoffSchedule b(50.0, 2000.0, 42);
    for (int i = 0; i < 8; i++)
        EXPECT_EQ(a.nextMs(), b.nextMs()) << "call " << i;
    EXPECT_EQ(a.attempts(), 8u);
}

TEST(Backoff, DelaysGrowExponentiallyJitteredAndCapped)
{
    const double base = 50.0, cap = 2000.0;
    BackoffSchedule s(base, cap, 1);
    double raw = base;
    for (int i = 0; i < 12; i++) {
        double d = s.nextMs();
        // Jitter keeps each delay in [raw/2, raw).
        EXPECT_GE(d, raw * 0.5) << "call " << i;
        EXPECT_LT(d, raw) << "call " << i;
        raw = std::min(raw * 2.0, cap);
    }
}

TEST(Backoff, DifferentSeedsDecorrelate)
{
    BackoffSchedule a(50.0, 2000.0, 1);
    BackoffSchedule b(50.0, 2000.0, 2);
    bool differed = false;
    for (int i = 0; i < 8; i++)
        differed |= a.nextMs() != b.nextMs();
    EXPECT_TRUE(differed);
}

// ---------------------------------------------------------------
// Fault spec parsing and the disarmed fast path.
// ---------------------------------------------------------------

class FaultSpec : public ::testing::Test
{
  protected:
    void TearDown() override { fault::disarm(); }
};

TEST_F(FaultSpec, ArmParsesNamesProbabilitiesDelaysAndSeed)
{
    EXPECT_FALSE(fault::armed());
    auto err =
        fault::arm("worker-throw:0.5,conn-stall:1:150,seed:42");
    EXPECT_FALSE(err.has_value()) << *err;
    EXPECT_TRUE(fault::armed());

    fault::disarm();
    EXPECT_FALSE(fault::armed());

    // A bare name arms at probability 1.
    EXPECT_FALSE(fault::arm("read-drop").has_value());
    EXPECT_TRUE(fault::armed());

    // An empty spec just disarms.
    EXPECT_FALSE(fault::arm("").has_value());
    EXPECT_FALSE(fault::armed());
}

TEST_F(FaultSpec, ArmRejectsMalformedSpecs)
{
    auto expectRejected = [](const char *spec,
                             const char *needle) {
        auto err = fault::arm(spec);
        ASSERT_TRUE(err.has_value()) << spec;
        EXPECT_NE(err->find(needle), std::string::npos) << *err;
        EXPECT_FALSE(fault::armed()) << spec;
    };
    expectRejected("frobnicate:1", "unknown fault point");
    expectRejected("worker-throw:1.5", "bad probability");
    expectRejected("worker-throw:-0.1", "bad probability");
    expectRejected("worker-throw:nan", "bad probability");
    expectRejected("conn-stall:1:999999999", "bad delay-ms");
    expectRejected("conn-stall:1:-5", "bad delay-ms");
    expectRejected("seed:abc", "bad seed");
    expectRejected("seed:-1", "bad seed");
    expectRejected("seed", "seed needs exactly one value");
    expectRejected("conn-stall:1:2:3", "too many");
}

TEST_F(FaultSpec, PointNamesRoundTrip)
{
    for (std::size_t i = 0; i < fault::kPoints; i++) {
        auto p = static_cast<fault::Point>(i);
        auto back = fault::pointByName(fault::name(p));
        ASSERT_TRUE(back.has_value()) << fault::name(p);
        EXPECT_EQ(*back, p);
    }
    EXPECT_FALSE(fault::pointByName("nope").has_value());
}

TEST_F(FaultSpec, DisarmedPointsNeverFire)
{
    fault::disarm();
    for (std::size_t i = 0; i < fault::kPoints; i++) {
        auto p = static_cast<fault::Point>(i);
        EXPECT_FALSE(fault::fire(p));
        EXPECT_EQ(fault::fires(p), 0u);
    }
    // Arming one point leaves the others cold.
    ASSERT_FALSE(fault::arm("worker-throw:1").has_value());
    EXPECT_FALSE(fault::fire(fault::Point::ConnStall));
    EXPECT_TRUE(fault::fire(fault::Point::WorkerThrow));
    EXPECT_EQ(fault::fires(fault::Point::WorkerThrow), 1u);
}

// ---------------------------------------------------------------
// Service-level chaos: crash containment, deadlines.
// ---------------------------------------------------------------

class ChaosServiceTest : public ::testing::Test
{
  protected:
    static ScenarioSpec
    scenario()
    {
        ScenarioSpec s;
        s.combo = {"mcf"};
        s.policy = "MaxBIPS";
        s.budgets = {0.8};
        return s;
    }

    /** Ground truth for scenario(): a direct serial sweep. */
    static std::string
    directPayload(const ScenarioSpec &spec)
    {
        ExperimentRunner direct(test::profiles(), test::dvfs(),
                                spec.simConfig());
        return serializeResults(
            spec, direct.trySweep(spec.sweepSpec()).value());
    }

    /** Poll until stats() satisfies @p done (or ~5 s pass). */
    template <typename Pred>
    static bool
    waitForStats(ScenarioService &svc, Pred done)
    {
        for (int i = 0; i < 5000; i++) {
            if (done(svc.stats()))
                return true;
            sleepMs(1);
        }
        return false;
    }

    void TearDown() override { fault::disarm(); }
};

TEST_F(ChaosServiceTest, WorkerThrowBecomesInternalErrorNotADeadService)
{
    ScenarioService svc(test::profiles(), test::dvfs());
    ASSERT_FALSE(fault::arm("worker-throw:1").has_value());

    auto r = svc.submit(scenario());
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, "internal_error");
    EXPECT_NE(r.errorMessage.find("worker-throw"),
              std::string::npos)
        << r.errorMessage;

    ServiceStats s = svc.stats();
    EXPECT_GE(s.workerCrashes, 1u);

    // The crashed worker keeps serving: the count stays whole.
    EXPECT_TRUE(waitForStats(svc, [&](const ServiceStats &st) {
        return st.workersAlive == svc.options().workers;
    })) << "worker count not restored";

    // Once the fault clears, the same scenario computes the exact
    // bytes a direct sweep produces — the crash poisoned nothing.
    fault::disarm();
    auto ok = svc.submit(scenario());
    ASSERT_TRUE(ok.ok) << ok.errorCode << ": " << ok.errorMessage;
    EXPECT_EQ(ok.payload, directPayload(scenario()));
}

TEST_F(ChaosServiceTest, ServiceSurvivesRepeatedCrashes)
{
    ScenarioService svc(test::profiles(), test::dvfs());
    ASSERT_FALSE(fault::arm("worker-throw:1,seed:9").has_value());

    // Distinct scenarios so nothing is served from cache; each one
    // crashes a worker, which must keep serving.
    for (int i = 0; i < 4; i++) {
        ScenarioSpec spec = scenario();
        spec.budgets = {0.70 + 0.05 * i};
        auto r = svc.submit(spec);
        EXPECT_FALSE(r.ok) << "iteration " << i;
        EXPECT_EQ(r.errorCode, "internal_error");
    }
    EXPECT_GE(svc.stats().workerCrashes, 4u);
    EXPECT_TRUE(waitForStats(svc, [&](const ServiceStats &st) {
        return st.workersAlive == svc.options().workers;
    }));
}

TEST_F(ChaosServiceTest, ProbabilisticCrashesConvergeUnderRetry)
{
    ScenarioService svc(test::profiles(), test::dvfs());
    ASSERT_FALSE(
        fault::arm("worker-throw:0.6,seed:7").has_value());

    // A client retry loop (the gpmctl shape): resubmit with seeded
    // backoff until the Bernoulli stream lets one through.
    BackoffSchedule backoff(1.0, 8.0, 7);
    ScenarioService::Response r;
    for (int attempt = 0; attempt < 50; attempt++) {
        r = svc.submit(scenario());
        if (r.ok)
            break;
        ASSERT_EQ(r.errorCode, "internal_error");
        sleepMs(static_cast<int>(backoff.nextMs()) + 1);
    }
    ASSERT_TRUE(r.ok) << "never converged";
    EXPECT_EQ(r.payload, directPayload(scenario()));
}

TEST_F(ChaosServiceTest, ExpiredDeadlineIsShedNotComputed)
{
    // Pin the only worker inside a deterministically slow sweep —
    // profile warm-up makes real sweeps too fast to race against.
    ASSERT_FALSE(fault::arm("worker-stall:1:400").has_value());
    ServiceOptions o;
    o.workers = 1;
    ScenarioService svc(test::profiles(), test::dvfs(), o);

    ScenarioSpec slow = scenario();
    std::thread holder([&] {
        auto r = svc.submit(slow);
        EXPECT_TRUE(r.ok) << r.errorCode;
    });
    bool sawBusy = waitForStats(svc, [](const ServiceStats &st) {
        return st.inFlight > 0;
    });

    // Queue a request whose deadline cannot survive the stall. The
    // worker sheds it at pop time instead of computing for a caller
    // that has given up.
    ScenarioSpec doomed = scenario();
    doomed.budgets = {0.95};
    doomed.deadlineMs = 0.01;
    auto r = svc.submit(doomed);
    holder.join();

    EXPECT_TRUE(sawBusy);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, "deadline_exceeded");
    EXPECT_EQ(svc.stats().shedDeadline, 1u);
    EXPECT_EQ(svc.stats().workerCrashes, 0u);

    // Fault cleared and no deadline: the same scenario computes.
    fault::disarm();
    doomed.deadlineMs = 0.0;
    auto ok = svc.submit(doomed);
    ASSERT_TRUE(ok.ok) << ok.errorCode;
    EXPECT_EQ(ok.payload, directPayload(doomed));
}

TEST_F(ChaosServiceTest, DeadlineIsQosOnlyAndSharesTheCacheEntry)
{
    ScenarioService svc(test::profiles(), test::dvfs());
    ScenarioSpec spec = scenario();
    ASSERT_TRUE(svc.submit(spec).ok);

    // The same scenario with a (satisfiable) deadline hits the
    // cache: deadlineMs is not part of the scenario's identity.
    spec.deadlineMs = 60000.0;
    auto r = svc.submit(spec);
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.cacheHit);
}

// ---------------------------------------------------------------
// Server-level chaos: transport faults over real loopback sockets.
// ---------------------------------------------------------------

using test::parseOk;
using test::roundTrip;

class ChaosServerTest : public ChaosServiceTest
{
  protected:
    void
    TearDown() override
    {
        gpmd.stop();
        fault::disarm();
    }

    static const char *
    submitLine()
    {
        return R"({"id": 1, "verb": "submit", "scenario": )"
               R"({"combo": ["mcf"], "policy": "MaxBIPS", )"
               R"("budget": 0.8}})";
    }

    test::Gpmd gpmd;
};

TEST_F(ChaosServerTest, DelayFaultsSlowTheRequestButNeverBreakIt)
{
    ASSERT_FALSE(fault::arm("accept-delay:1:30,conn-stall:1:30,"
                            "response-delay:1:30")
                     .has_value());
    gpmd.start();

    TcpStream c = gpmd.connect();
    json::Value r = parseOk(roundTrip(c, submitLine()));
    ASSERT_TRUE(r.find("ok")->asBool());

    // Every delay point actually fired, and the payload is still
    // exactly what a direct sweep computes.
    EXPECT_GE(fault::fires(fault::Point::AcceptDelay), 1u);
    EXPECT_GE(fault::fires(fault::Point::ConnStall), 1u);
    EXPECT_GE(fault::fires(fault::Point::ResponseDelay), 1u);
    auto direct = json::parse(directPayload(scenario()));
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(r.find("result")->canonical(),
              direct.value().canonical());
}

TEST_F(ChaosServerTest, DroppedRequestTimesOutThenRetrySucceeds)
{
    ASSERT_FALSE(fault::arm("read-drop:1").has_value());
    gpmd.start();

    TcpStream c = gpmd.connect();
    c.setReadTimeoutMs(200);
    ASSERT_TRUE(c.writeAll(R"({"verb": "ping"})"
                           "\n"));
    // The server swallowed the line: the client's only signal is
    // its own timeout — exactly what gpmctl retries on.
    std::string response;
    EXPECT_EQ(c.readLine(response),
              TcpStream::ReadStatus::Timeout);
    EXPECT_GE(fault::fires(fault::Point::ReadDrop), 1u);

    // The retry (fault cleared) is served on the same connection.
    fault::disarm();
    c.setReadTimeoutMs(5000);
    json::Value r = parseOk(roundTrip(c, R"({"verb": "ping"})"));
    EXPECT_TRUE(r.find("ok")->asBool());
}

TEST_F(ChaosServerTest, WorkerThrowOverTheWireLeavesDaemonServing)
{
    ASSERT_FALSE(fault::arm("worker-throw:1").has_value());
    gpmd.start();

    TcpStream c = gpmd.connect();
    json::Value r = parseOk(roundTrip(c, submitLine()));
    EXPECT_FALSE(r.find("ok")->asBool());
    EXPECT_EQ(r.find("error")->find("code")->asString(),
              "internal_error");

    // Same connection still pings; the stats verb reports the
    // crash and the whole worker count.
    r = parseOk(roundTrip(c, R"({"verb": "ping"})"));
    EXPECT_TRUE(r.find("ok")->asBool());
    EXPECT_TRUE(waitForStats(*gpmd.svc, [&](const ServiceStats &st) {
        return st.workersAlive == gpmd.svc->options().workers;
    }));
    r = parseOk(roundTrip(c, R"({"verb": "stats"})"));
    const json::Value *sr = r.find("result");
    ASSERT_TRUE(sr);
    EXPECT_GE(sr->find("workerCrashes")->asNumber(), 1.0);
    EXPECT_EQ(sr->find("workersAlive")->asNumber(),
              static_cast<double>(gpmd.svc->options().workers));
    EXPECT_TRUE(sr->find("faultsArmed")->asBool());

    // Disarmed, the daemon serves the scenario it crashed on.
    fault::disarm();
    r = parseOk(roundTrip(c, submitLine()));
    ASSERT_TRUE(r.find("ok")->asBool());
    auto direct = json::parse(directPayload(scenario()));
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(r.find("result")->canonical(),
              direct.value().canonical());
}

TEST_F(ChaosServerTest, IdleConnectionIsReaped)
{
    ServerOptions opts;
    opts.idleTimeoutMs = 150;
    gpmd.start({}, opts);

    TcpStream idle = gpmd.connect();
    idle.setReadTimeoutMs(5000);
    // Say nothing: the server reaps us, seen as an orderly close.
    std::string line;
    EXPECT_EQ(idle.readLine(line), TcpStream::ReadStatus::Eof);
    EXPECT_GE(gpmd.server->idleReapedCount(), 1u);

    // Reaping one deadbeat does not disturb new connections.
    TcpStream fresh = gpmd.connect();
    json::Value r =
        parseOk(roundTrip(fresh, R"({"verb": "ping"})"));
    EXPECT_TRUE(r.find("ok")->asBool());
}

TEST_F(ChaosServerTest, OverlongLineIsAnsweredThenConnectionCloses)
{
    ServerOptions opts;
    opts.maxLineBytes = 64;
    gpmd.start({}, opts);

    TcpStream c = gpmd.connect();
    c.setReadTimeoutMs(5000);
    ASSERT_TRUE(
        c.writeAll(std::string(200, 'x') + "\n"));

    // One structured refusal, then EOF — framing is unrecoverable
    // past an overrun, so the server does not guess.
    std::string response;
    ASSERT_EQ(c.readLine(response), TcpStream::ReadStatus::Line);
    json::Value r = parseOk(response);
    EXPECT_FALSE(r.find("ok")->asBool());
    EXPECT_EQ(r.find("error")->find("code")->asString(),
              "line_too_long");
    EXPECT_EQ(c.readLine(response), TcpStream::ReadStatus::Eof);
    EXPECT_GE(gpmd.server->lineTooLongCount(), 1u);
}

TEST_F(ChaosServerTest, StatsVerbReportsRobustnessCounters)
{
    gpmd.start();
    TcpStream c = gpmd.connect();
    json::Value r = parseOk(roundTrip(c, R"({"verb": "stats"})"));
    const json::Value *sr = r.find("result");
    ASSERT_TRUE(sr);
    EXPECT_EQ(sr->find("shedDeadline")->asNumber(), 0.0);
    EXPECT_EQ(sr->find("workerCrashes")->asNumber(), 0.0);
    EXPECT_EQ(sr->find("workersAlive")->asNumber(),
              static_cast<double>(gpmd.svc->options().workers));
    EXPECT_EQ(sr->find("idleReaped")->asNumber(), 0.0);
    EXPECT_EQ(sr->find("lineTooLong")->asNumber(), 0.0);
    EXPECT_FALSE(sr->find("faultsArmed")->asBool());
}

} // namespace
} // namespace gpm
