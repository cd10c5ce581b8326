/** @file The overload-resilience layer: backoff overflow safety at
 *  absurd attempt counts, the degradation ladder's shape, the
 *  CircuitBreaker state machine, admission-control fairness and
 *  doomed-deadline shedding, end-to-end degraded serving (bitwise
 *  equal to a direct run of the fallback policy, cached only under
 *  the degraded hash), and the read breakers of the disk cache and
 *  the profile store under injected read stalls. */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>

#include "harness.hh"
#include "service/degrade.hh"
#include "service/disk_cache.hh"
#include "service/service.hh"
#include "util/backoff.hh"
#include "util/breaker.hh"
#include "util/fault.hh"

namespace gpm
{
namespace
{

// --------------------------------------------------------------
// BackoffSchedule: the exponent must saturate, not overflow.

TEST(BackoffOverflow, HighAttemptCountsStayFiniteAndCapped)
{
    const double cap = 30000.0;
    BackoffSchedule b(100.0, cap, 7);
    for (int i = 0; i < 500; i++) {
        double d = b.nextMs();
        ASSERT_TRUE(std::isfinite(d)) << "attempt " << i;
        ASSERT_GE(d, 0.0) << "attempt " << i;
        // Jitter draws from [0.5, 1), so the delay never exceeds
        // the un-jittered cap even at attempt counts where an
        // unclamped 2^n is infinite.
        ASSERT_LT(d, cap) << "attempt " << i;
        if (i > 62) {
            ASSERT_GE(d, cap * 0.5) << "attempt " << i;
        }
    }
    EXPECT_EQ(b.attempts(), 500u);
}

// --------------------------------------------------------------
// Degradation ladder shape.

TEST(DegradeLadder, RungsAndTraversal)
{
    EXPECT_TRUE(degrade::onLadder("MaxBIPS"));
    EXPECT_TRUE(degrade::onLadder("MaxBIPS-DP"));
    EXPECT_TRUE(degrade::onLadder("MaxBIPS-DP<64>"));
    EXPECT_TRUE(degrade::onLadder("GreedyTurbo"));
    EXPECT_TRUE(degrade::onLadder("WaterFill"));
    EXPECT_FALSE(degrade::onLadder("MaxBIPS-BnB"));
    EXPECT_FALSE(degrade::onLadder("Priority"));
    EXPECT_FALSE(degrade::onLadder("Static"));
    EXPECT_FALSE(degrade::onLadder("MinPowerGreedy"));

    EXPECT_EQ(degrade::rungIndex("MaxBIPS"), 0);
    EXPECT_EQ(degrade::rungIndex("MaxBIPS-DP<128>"), 1);
    EXPECT_EQ(degrade::rungIndex("GreedyTurbo"), 2);
    EXPECT_EQ(degrade::rungIndex("WaterFill"), 3);
    EXPECT_FALSE(degrade::rungIndex("Oracle").has_value());

    // Walking from the top visits every rung and terminates.
    std::string p = "MaxBIPS";
    std::vector<std::string> walk{p};
    while (auto next = degrade::nextRung(p)) {
        p = *next;
        walk.push_back(p);
    }
    EXPECT_EQ(walk,
              (std::vector<std::string>{"MaxBIPS", "MaxBIPS-DP",
                                        "GreedyTurbo",
                                        "WaterFill"}));
    EXPECT_FALSE(degrade::nextRung("Priority").has_value());
}

// --------------------------------------------------------------
// CircuitBreaker state machine.

BreakerOptions
fastBreaker()
{
    BreakerOptions o;
    o.window = 8;
    o.minSamples = 4;
    o.cooldownMs = 20.0;
    o.seed = 3;
    return o;
}

/** Cooldown upper bound: cooldownMs * jitter < cooldownMs * 1.5. */
void
sleepPastCooldown(const BreakerOptions &o)
{
    std::this_thread::sleep_for(std::chrono::duration<double,
                                                      std::milli>(
        o.cooldownMs * 1.5 + 10.0));
}

TEST(Breaker, OpensAfterWindowedFailures)
{
    CircuitBreaker b(fastBreaker());
    EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
    EXPECT_STREQ(b.stateName(), "closed");

    // Below minSamples nothing trips, however bad the rate.
    for (int i = 0; i < 3; i++) {
        ASSERT_TRUE(b.allow());
        b.recordFailure();
    }
    EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);

    ASSERT_TRUE(b.allow());
    b.recordFailure(); // 4th failure of 4: rate 1.0 >= 0.5
    EXPECT_EQ(b.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(b.opens(), 1u);
    EXPECT_FALSE(b.allow()); // refused while open
}

TEST(Breaker, HalfOpenProbeClosesOnSuccess)
{
    CircuitBreaker b(fastBreaker());
    for (int i = 0; i < 4; i++) {
        ASSERT_TRUE(b.allow());
        b.recordFailure();
    }
    ASSERT_EQ(b.state(), CircuitBreaker::State::Open);

    sleepPastCooldown(b.options());
    ASSERT_TRUE(b.allow()); // the probe
    EXPECT_EQ(b.state(), CircuitBreaker::State::HalfOpen);
    EXPECT_STREQ(b.stateName(), "half-open");
    EXPECT_FALSE(b.allow()); // only ONE probe

    b.recordSuccess();
    EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
    EXPECT_TRUE(b.allow());
    // The window was cleared: one new failure must not re-trip.
    b.recordFailure();
    EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
    EXPECT_EQ(b.opens(), 1u);
}

TEST(Breaker, HalfOpenProbeReopensOnFailure)
{
    CircuitBreaker b(fastBreaker());
    for (int i = 0; i < 4; i++) {
        ASSERT_TRUE(b.allow());
        b.recordFailure();
    }
    sleepPastCooldown(b.options());
    ASSERT_TRUE(b.allow());
    b.recordFailure(); // the probe fails
    EXPECT_EQ(b.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(b.opens(), 2u);
    EXPECT_FALSE(b.allow());

    // And the cycle repeats: it can still recover later.
    sleepPastCooldown(b.options());
    ASSERT_TRUE(b.allow());
    b.recordSuccess();
    EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
}

// --------------------------------------------------------------
// AdmissionController in isolation.

AdmissionOptions
admissionOpts()
{
    AdmissionOptions o;
    o.degradeDepth = 0.75;
    return o;
}

TEST(Admission, FairnessCapsOnePipelinedClient)
{
    // capacity 8, fair share 0.5 -> one client may hold 4 slots.
    AdmissionController ac(admissionOpts(), 8, 2);
    const std::string key = "MaxBIPS";

    for (int i = 0; i < 4; i++) {
        auto d = ac.preAdmit(1, key, key, 0.0, i);
        ASSERT_TRUE(d.admit) << "slot " << i;
        ac.onEnqueue(1);
    }
    auto d = ac.preAdmit(1, key, key, 0.0, 4);
    EXPECT_FALSE(d.admit);
    EXPECT_EQ(d.errorCode, "rejected_overload");
    EXPECT_GE(d.retryAfterMs, 10.0);
    EXPECT_LE(d.retryAfterMs, 5000.0);
    EXPECT_EQ(ac.shedCount(), 1u);

    // A second client still gets in; client 0 is always exempt.
    EXPECT_TRUE(ac.preAdmit(2, key, key, 0.0, 4).admit);
    EXPECT_TRUE(ac.preAdmit(0, key, key, 0.0, 4).admit);

    // Freeing a slot readmits the flooding client.
    ac.onDequeue(1);
    EXPECT_TRUE(ac.preAdmit(1, key, key, 0.0, 3).admit);
}

TEST(Admission, DoomedDeadlinesShedOnlyAfterObservation)
{
    AdmissionController ac(admissionOpts(), 8, 1);

    // Cold service: even an absurd deadline is admitted (no EWMA,
    // no prediction).
    EXPECT_TRUE(
        ac.preAdmit(0, "MaxBIPS", "WaterFill", 0.001, 1).admit);

    // Observe the ladder floor at 500 ms; behind one queued request
    // a 10 ms deadline is now predictably doomed, a 10 s one is
    // fine.
    ac.recordService("WaterFill", 500.0);
    ac.recordService("WaterFill", 500.0);
    EXPECT_NEAR(ac.serviceTimeMs("WaterFill"), 500.0, 1e-9);

    auto doomed = ac.preAdmit(0, "MaxBIPS", "WaterFill", 10.0, 1);
    EXPECT_FALSE(doomed.admit);
    EXPECT_EQ(doomed.errorCode, "rejected_overload");
    EXPECT_GE(doomed.retryAfterMs, 10.0);
    EXPECT_TRUE(
        ac.preAdmit(0, "MaxBIPS", "WaterFill", 10000.0, 1).admit);

    // At load 0 the request would start at once, so nothing is
    // shed: running it is what corrects a stale estimate.
    EXPECT_TRUE(
        ac.preAdmit(0, "MaxBIPS", "WaterFill", 10.0, 0).admit);

    // Queue wait scales the prediction: a deadline that clears one
    // request ahead but not the backlog's worth is shed at load.
    EXPECT_TRUE(
        ac.preAdmit(0, "MaxBIPS", "WaterFill", 1200.0, 1).admit);
    EXPECT_FALSE(
        ac.preAdmit(0, "MaxBIPS", "WaterFill", 1200.0, 4).admit);

    // Deadline-less requests are never deadline-shed.
    EXPECT_TRUE(
        ac.preAdmit(0, "MaxBIPS", "WaterFill", 0.0, 100).admit);
}

TEST(Admission, DisabledControllerAdmitsEverything)
{
    AdmissionOptions o = admissionOpts();
    o.enabled = false;
    AdmissionController ac(o, 4, 1);
    ac.recordService("WaterFill", 1e6);
    for (int i = 0; i < 10; i++) {
        auto d = ac.preAdmit(1, "MaxBIPS", "WaterFill", 1.0, 4);
        EXPECT_TRUE(d.admit);
        EXPECT_FALSE(d.overloaded);
        ac.onEnqueue(1);
    }
    EXPECT_EQ(ac.shedCount(), 0u);
}

// --------------------------------------------------------------
// End-to-end degraded serving through ScenarioService.

class OverloadServiceTest : public ::testing::Test
{
  protected:
    static ScenarioSpec
    scenario()
    {
        ScenarioSpec s;
        s.combo = {"mcf", "crafty"};
        s.policy = "MaxBIPS";
        s.budgets = {0.8};
        return s;
    }

    void
    TearDown() override
    {
        fault::disarm();
    }

    /** Start a deadline-less gcc,mesa request on a stalled worker
     *  and return its response: while it is in flight, the service
     *  is not idle, so a deadline request may step down the ladder
     *  at execution (one that finds it idle runs as named). */
    static std::future<ScenarioService::Response>
    holdAWorker(ScenarioService &svc)
    {
        EXPECT_FALSE(fault::arm("worker-stall:1:200"));
        ScenarioSpec held = scenario();
        held.combo = {"gcc", "mesa"};
        auto p = std::make_shared<
            std::promise<ScenarioService::Response>>();
        auto f = p->get_future();
        svc.submitAsync(held,
                        [p](const ScenarioService::Response &r) {
                            p->set_value(r);
                        });
        return f;
    }
};

TEST_F(OverloadServiceTest,
       DeadlineDegradeMatchesDirectFallbackBitwise)
{
    ScenarioService svc(test::profiles(), test::dvfs());
    // Teach the service that exact MaxBIPS takes ~60 s while the
    // ladder floor is ~1 ms: a 5 s deadline passes admission (the
    // floor could meet it) but the exact solver predictably blows
    // it, so execution steps one rung down.
    svc.admissionController().recordService("MaxBIPS", 60000.0);
    svc.admissionController().recordService("WaterFill", 1.0);
    // Build the profiles before the clock starts: under a sanitizer
    // a lazy build alone can outlast the deadline.
    test::profiles().get("mcf");
    test::profiles().get("crafty");

    auto held = holdAWorker(svc);
    ScenarioSpec spec = scenario();
    spec.deadlineMs = 5000.0;
    auto r = svc.submit(spec);
    ASSERT_TRUE(held.get().ok);
    fault::disarm();
    ASSERT_TRUE(r.ok) << r.errorCode << ": " << r.errorMessage;
    EXPECT_EQ(r.hash, spec.hash()); // echoes the SUBMITTED hash
    EXPECT_FALSE(r.cacheHit);
    EXPECT_EQ(r.degradedFrom, "MaxBIPS");
    EXPECT_EQ(r.degradedTo, "MaxBIPS-DP");
    EXPECT_EQ(r.degradedReason, "deadline");
    EXPECT_EQ(svc.stats().degradedRequests, 1u);

    // Bitwise ground truth: a direct submission of the degraded
    // scenario to a pristine service returns the same bytes.
    ScenarioSpec fallback =
        degradeSpec(scenario(), "MaxBIPS-DP");
    ScenarioService fresh(test::profiles(), test::dvfs());
    auto direct = fresh.submit(fallback);
    ASSERT_TRUE(direct.ok);
    EXPECT_EQ(r.payload, direct.payload);

    // CACHE ISOLATION: the degraded payload must not be reachable
    // under the original scenario's hash...
    ScenarioSpec exact = scenario();
    auto exactRun = svc.submit(exact);
    ASSERT_TRUE(exactRun.ok);
    EXPECT_FALSE(exactRun.cacheHit)
        << "degraded payload leaked into the exact hash";
    EXPECT_TRUE(exactRun.degradedTo.empty());
    EXPECT_NE(exactRun.payload, r.payload);

    // ...but a direct request for the fallback scenario IS a cache
    // hit with exactly the degraded bytes.
    auto fallbackRun = svc.submit(fallback);
    ASSERT_TRUE(fallbackRun.ok);
    EXPECT_TRUE(fallbackRun.cacheHit);
    EXPECT_EQ(fallbackRun.payload, r.payload);
}

TEST_F(OverloadServiceTest, OverloadAtAdmitDegradesOneRung)
{
    ServiceOptions opts;
    opts.workers = 1;
    opts.queueCapacity = 8;
    // Any queued or in-flight work puts the service in overload.
    opts.admission.degradeDepth = 0.01;
    ScenarioService svc(test::profiles(), test::dvfs(), opts);

    // Pin the single worker so the second submission is admitted
    // while the first is still in flight.
    ASSERT_FALSE(fault::arm("worker-stall:1:200"));

    ScenarioSpec first = scenario();
    auto p1 = std::make_shared<
        std::promise<ScenarioService::Response>>();
    auto f1 = p1->get_future();
    svc.submitAsync(first,
                    [p1](const ScenarioService::Response &r) {
                        p1->set_value(r);
                    });

    ScenarioSpec second = scenario();
    second.combo = {"gcc", "mesa"};
    auto p2 = std::make_shared<
        std::promise<ScenarioService::Response>>();
    auto f2 = p2->get_future();
    svc.submitAsync(second,
                    [p2](const ScenarioService::Response &r) {
                        p2->set_value(r);
                    });

    auto r1 = f1.get();
    auto r2 = f2.get();
    ASSERT_TRUE(r1.ok) << r1.errorCode << ": " << r1.errorMessage;
    ASSERT_TRUE(r2.ok) << r2.errorCode << ": " << r2.errorMessage;
    EXPECT_EQ(r2.degradedFrom, "MaxBIPS");
    EXPECT_EQ(r2.degradedTo, "MaxBIPS-DP");
    EXPECT_EQ(r2.degradedReason, "overload");
    EXPECT_GE(svc.stats().degradedRequests, 1u);
}

TEST_F(OverloadServiceTest, ClusterFacilityKernelDegrades)
{
    ScenarioService svc(test::profiles(), test::dvfs());
    svc.admissionController().recordService("cluster:GreedyTurbo",
                                            60000.0);
    svc.admissionController().recordService("cluster:WaterFill",
                                            1.0);

    ScenarioSpec spec;
    ClusterSpec cl;
    ChipSpec a;
    a.combo = {"mcf", "crafty"};
    a.policy = "MaxBIPS";
    ChipSpec b;
    b.combo = {"gcc", "mesa"};
    b.policy = "WaterFill";
    cl.chips = {a, b};
    cl.epochs = 2;
    cl.epochUs = 1000.0;
    cl.levels = 8;
    spec.cluster = std::move(cl);
    spec.policy = "GreedyTurbo"; // the facility kernel
    spec.budgets = {0.8};
    spec.deadlineMs = 5000.0;

    auto held = holdAWorker(svc);
    auto r = svc.submit(spec);
    ASSERT_TRUE(held.get().ok);
    fault::disarm();
    ASSERT_TRUE(r.ok) << r.errorCode << ": " << r.errorMessage;
    EXPECT_EQ(r.degradedFrom, "GreedyTurbo");
    EXPECT_EQ(r.degradedTo, "WaterFill");
    EXPECT_EQ(r.degradedReason, "deadline");
    EXPECT_EQ(r.hash, spec.hash());

    // The chips keep their inner policies: only the facility
    // kernel moved down the ladder.
    ScenarioSpec fallback = degradeSpec(spec, "WaterFill");
    EXPECT_EQ(fallback.cluster->chips[0].policy, "MaxBIPS");
    ScenarioService fresh(test::profiles(), test::dvfs());
    auto direct = fresh.submit(fallback);
    ASSERT_TRUE(direct.ok);
    EXPECT_EQ(r.payload, direct.payload);
}

TEST_F(OverloadServiceTest, IdleRequestsCorrectAStaleEstimate)
{
    // Priority is off the degradation ladder; MaxBIPS is its top
    // rung, which a stale estimate would step down at execution.
    for (const char *policy : {"Priority", "MaxBIPS"}) {
        SCOPED_TRACE(policy);
        ServiceOptions opts;
        opts.workers = 1;
        ScenarioService svc(test::profiles(), test::dvfs(), opts);
        // An estimate 1 s stale, far above what a 2-core request
        // costs.
        AdmissionController &ac = svc.admissionController();
        ac.recordService(policy, 1000.0);
        test::profiles().get("mcf");
        test::profiles().get("crafty");

        // Each submit finds the service idle, so none is shed or
        // degraded on the estimate: each runs the named policy, and
        // each completion pulls its estimate down.
        for (int i = 0; i < 20; i++) {
            ScenarioSpec s = scenario();
            s.policy = policy;
            s.budgets = {0.6 + 0.01 * i};
            s.deadlineMs = 100.0;
            auto r = svc.submit(s);
            ASSERT_TRUE(r.ok) << i << ": " << r.errorCode << ": "
                              << r.errorMessage;
            EXPECT_TRUE(r.degradedTo.empty()) << i << ": "
                                              << r.degradedTo;
        }
        EXPECT_EQ(svc.stats().shedOverload, 0u);
        EXPECT_LT(ac.serviceTimeMs(policy), 100.0);
    }
}

TEST_F(OverloadServiceTest, EstimateCoversTheCompletionCallback)
{
    // A request costs its worker until the response is delivered: a
    // completion callback that takes 20 ms must show in MaxBIPS's
    // estimate, not only the simulation's own ~0.1 ms.
    std::promise<bool> answered;
    ServiceOptions opts;
    opts.workers = 1;
    ScenarioService svc(test::profiles(), test::dvfs(), opts);
    AdmissionController &ac = svc.admissionController();
    // Built beforehand, so a cold profile store cannot stretch the
    // simulation itself past 20 ms.
    test::profiles().get("mcf");
    test::profiles().get("crafty");
    svc.submitAsync(scenario(), [&](ScenarioService::Response &&r) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        answered.set_value(r.ok);
    });
    ASSERT_TRUE(answered.get_future().get());
    // The worker records the estimate once the callback returns.
    for (int i = 0; i < 10000 && ac.serviceTimeMs("MaxBIPS") == 0.0;
         i++)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(ac.serviceTimeMs("MaxBIPS"), 20.0);
}

TEST_F(OverloadServiceTest, ProfileBuildDoesNotSeedTheEstimate)
{
    // Over a fresh store the first request builds mcf and crafty; it
    // timed the build, not MaxBIPS, so it must leave no estimate
    // behind, or admission would shed MaxBIPS deadline requests on a
    // figure thousands of times too high.
    test::TempDir store;
    ProfileLibrary lib(test::dvfs(), 0.03);
    lib.attachStore(store.path());
    ServiceOptions opts;
    opts.workers = 1;
    ScenarioService svc(lib, test::dvfs(), opts);
    AdmissionController &ac = svc.admissionController();

    auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(svc.submit(scenario()).ok);
    const double firstMs = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    ASSERT_EQ(lib.stats().builds, 2u);

    // The one worker runs the second request only after it has
    // finished with the first, and records the second's sample only
    // after its callback returns: inside the callback, the estimate
    // holds what the first request left.
    ScenarioSpec warm = scenario();
    warm.budgets = {0.7};
    std::promise<double> seen;
    svc.submitAsync(warm, [&](ScenarioService::Response &&r) {
        EXPECT_TRUE(r.ok);
        seen.set_value(ac.serviceTimeMs("MaxBIPS"));
    });
    EXPECT_EQ(seen.get_future().get(), 0.0);
    for (int i = 0; i < 10000 && ac.serviceTimeMs("MaxBIPS") == 0.0;
         i++)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(ac.serviceTimeMs("MaxBIPS"), 0.0);
    EXPECT_LT(ac.serviceTimeMs("MaxBIPS"), firstMs);
    EXPECT_EQ(lib.stats().builds, 2u);
}

TEST_F(OverloadServiceTest, BusyRejectionCarriesRetryHint)
{
    ServiceOptions opts;
    opts.queueCapacity = 0; // every miss is a hard "busy"
    ScenarioService svc(test::profiles(), test::dvfs(), opts);
    auto r = svc.submit(scenario());
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, "busy");
    EXPECT_GE(r.retryAfterMs, 10.0);
    EXPECT_LE(r.retryAfterMs, 5000.0);
}

TEST_F(OverloadServiceTest, LadderOffServesExactOrNothing)
{
    ServiceOptions opts;
    opts.degradeLadder = false;
    ScenarioService svc(test::profiles(), test::dvfs(), opts);
    svc.admissionController().recordService("MaxBIPS", 60000.0);
    svc.admissionController().recordService("WaterFill", 1.0);

    ScenarioSpec spec = scenario();
    spec.deadlineMs = 5000.0;
    auto r = svc.submit(spec);
    // With the ladder off the request runs (or sheds) as
    // submitted; it must never come back degraded.
    EXPECT_TRUE(r.degradedTo.empty());
    if (r.ok) {
        EXPECT_TRUE(r.degradedReason.empty());
    }
}

// --------------------------------------------------------------
// Disk-cache read breaker under injected read stalls.

class DiskBreakerTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::disarm(); }

    test::TempDir tmp;
    const std::string dir = tmp.path();
};

TEST_F(DiskBreakerTest, ReadStallsOpenThenRecoveryCloses)
{
    BreakerOptions bo = fastBreaker();
    bo.minSamples = 2;
    bo.window = 4;
    DiskCache cache(dir, 0, bo);
    cache.put(0x1234, "payload-bytes");
    std::string out;
    ASSERT_TRUE(cache.get(0x1234, out));
    ASSERT_EQ(out, "payload-bytes");

    // A sick disk: every read stalls and fails. After minSamples
    // failures the breaker opens and further reads are refused
    // without touching the disk at all.
    ASSERT_FALSE(fault::arm("disk-read-stall:1:1"));
    EXPECT_FALSE(cache.get(0x1234, out));
    EXPECT_FALSE(cache.get(0x1234, out));
    EXPECT_EQ(cache.readBreaker().state(),
              CircuitBreaker::State::Open);
    auto fired = fault::fires(fault::Point::DiskReadStall);

    EXPECT_FALSE(cache.get(0x1234, out)); // refused, no disk I/O
    EXPECT_EQ(fault::fires(fault::Point::DiskReadStall), fired);
    DiskCacheStats st = cache.stats();
    EXPECT_GE(st.breakerOpens, 1u);
    EXPECT_GE(st.breakerRefusals, 1u);
    EXPECT_EQ(std::string(st.breakerState), "open");

    // Writes are skipped while open (nothing half-consumes the
    // probe), and counted as refusals.
    auto refusalsBefore = cache.stats().breakerRefusals;
    cache.put(0x5678, "never-lands");
    EXPECT_GT(cache.stats().breakerRefusals, refusalsBefore);

    // The disk heals; after the cooldown the half-open probe
    // succeeds and service returns, with the original bytes.
    fault::disarm();
    sleepPastCooldown(bo);
    out.clear();
    ASSERT_TRUE(cache.get(0x1234, out));
    EXPECT_EQ(out, "payload-bytes");
    EXPECT_EQ(cache.readBreaker().state(),
              CircuitBreaker::State::Closed);
    EXPECT_EQ(std::string(cache.stats().breakerState), "closed");
}

TEST_F(DiskBreakerTest, ProfileReadStallsOpenThenRecoveryCloses)
{
    // A cooldown no build outlasts, however slow the host: only the
    // clock-skew jump below ends it.
    BreakerOptions bo = fastBreaker();
    bo.minSamples = 2;
    bo.window = 4;
    bo.cooldownMs = 300000.0;
    DvfsTable dvfs = DvfsTable::classic3();
    constexpr double kScale = 0.002;
    WorkloadProfile stored;
    {
        ProfileLibrary seed(dvfs, kScale);
        seed.attachStore(dir);
        stored = seed.get("mcf");
    }

    // A sick disk: every store read stalls and fails. After
    // minSamples failures the breaker opens, and the library then
    // builds from the trace model without touching the store.
    ProfileLibrary lib(dvfs, kScale);
    lib.attachStore(dir, bo);
    ASSERT_FALSE(fault::arm("profile-read-stall:1:1"));
    lib.get("crafty");
    lib.get("gcc");
    EXPECT_EQ(std::string(lib.stats().storeBreakerState), "open");
    auto fired = fault::fires(fault::Point::ProfileReadStall);

    lib.get("art"); // refused, built without disk I/O
    EXPECT_EQ(fault::fires(fault::Point::ProfileReadStall), fired);
    ProfileLibraryStats st = lib.stats();
    EXPECT_EQ(st.builds, 3u);
    EXPECT_EQ(st.diskHits, 0u);
    EXPECT_GE(st.storeBreakerOpens, 1u);
    EXPECT_GE(st.storeBreakerRefusals, 1u);

    // The disk heals; a clock jump past the cooldown lets the
    // half-open probe load the stored entry, bitwise-identical, and
    // close the breaker.
    ASSERT_FALSE(fault::arm("clock-skew:1:600000"));
    const WorkloadProfile &loaded = lib.get("mcf");
    fault::disarm();
    st = lib.stats();
    EXPECT_EQ(st.diskHits, 1u);
    EXPECT_EQ(st.builds, 3u);
    EXPECT_EQ(std::string(st.storeBreakerState), "closed");
    EXPECT_TRUE(test::identical(loaded, stored));
}

TEST_F(DiskBreakerTest, ServiceSurfacesProfileBreakerState)
{
    BreakerOptions bo = fastBreaker();
    bo.minSamples = 2;
    bo.window = 4;
    DvfsTable dvfs = DvfsTable::classic3();
    ProfileLibrary lib(dvfs, 0.03);
    lib.attachStore(dir, bo);
    ScenarioService svc(lib, dvfs);

    ScenarioSpec s;
    s.combo = {"mcf", "crafty"};
    s.policy = "WaterFill";
    s.budgets = {0.8};

    // Both profile reads stall: the second opens the store's
    // breaker, and its save is refused. The disk tier is separate.
    ASSERT_FALSE(fault::arm("profile-read-stall:1:1"));
    ASSERT_TRUE(svc.submit(s).ok);
    ServiceStats st = svc.stats();
    EXPECT_EQ(st.profileBuilds, 2u);
    EXPECT_GE(st.profileBreakerOpens, 1u);
    EXPECT_GE(st.profileBreakerRefusals, 1u);
    EXPECT_EQ(std::string(st.profileBreakerState), "open");
    EXPECT_EQ(std::string(st.diskBreakerState), "closed");
}

TEST_F(DiskBreakerTest, ServiceSurfacesBreakerCounters)
{
    ServiceOptions opts;
    opts.cacheDir = dir;
    BreakerOptions bo = fastBreaker();
    bo.minSamples = 2;
    bo.window = 4;
    opts.resultBreaker = bo;

    DvfsTable dvfs = DvfsTable::classic3();
    ProfileLibrary lib(dvfs, 0.03);
    ScenarioService svc(lib, dvfs, opts);

    ScenarioSpec s;
    s.combo = {"mcf", "crafty"};
    s.policy = "WaterFill";
    s.budgets = {0.8};

    ASSERT_FALSE(fault::arm("disk-read-stall:1:1"));
    ASSERT_TRUE(svc.submit(s).ok);
    s.budgets = {0.9};
    ASSERT_TRUE(svc.submit(s).ok);
    ServiceStats st = svc.stats();
    EXPECT_GE(st.diskBreakerOpens, 1u);
    EXPECT_EQ(std::string(st.diskBreakerState), "open");
    // The profile-store breaker is independent (no store attached
    // here) and reports closed.
    EXPECT_EQ(std::string(st.profileBreakerState), "closed");
}

} // namespace
} // namespace gpm
