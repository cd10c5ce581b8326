/** @file The high-throughput serving path: many submitAsync
 *  scenarios in flight streaming out-of-order completions, their
 *  fan-out across the worker pool, cooperative mid-sweep deadline
 *  cancellation, the two-tier (memory + disk) result cache across
 *  restarts and shared directories, and pipelined submit lines on
 *  one connection. */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "harness.hh"
#include "util/fault.hh"
#include "service/service.hh"

namespace gpm
{
namespace
{

/** Collects streamed completions across worker threads. */
struct Collector
{
    std::mutex mtx;
    std::condition_variable cv;
    std::vector<std::pair<std::size_t, ScenarioService::Response>>
        done;

    /** The completion callback of the @p i-th scenario. */
    ScenarioService::Callback
    sink(std::size_t i)
    {
        return [this, i](ScenarioService::Response &&r) {
            std::lock_guard<std::mutex> lock(mtx);
            done.emplace_back(i, std::move(r));
            cv.notify_all();
        };
    }

    bool
    waitFor(std::size_t n)
    {
        std::unique_lock<std::mutex> lock(mtx);
        return cv.wait_for(lock, std::chrono::seconds(30),
                           [&] { return done.size() >= n; });
    }

    std::size_t
    count()
    {
        std::lock_guard<std::mutex> lock(mtx);
        return done.size();
    }
};

class BatchTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::disarm(); }

    /** A single-budget scenario; @p budget varies the cache key. */
    static ScenarioSpec
    scenario(double budget = 0.8)
    {
        ScenarioSpec s;
        s.combo = {"mcf"};
        s.policy = "MaxBIPS";
        s.budgets = {budget};
        return s;
    }

    /** Scratch directory for the disk tier. */
    test::TempDir cacheDir;
};

TEST_F(BatchTest, MixedHitMissBatchStreamsEveryScenarioOnce)
{
    ScenarioService svc(test::profiles(), test::dvfs());
    // Prime the cache with one of the three.
    auto primed = svc.submit(scenario(0.8));
    ASSERT_TRUE(primed.ok);

    Collector got;
    const double budgets[] = {0.7, 0.8, 0.9};
    for (std::size_t i = 0; i < 3; i++)
        svc.submitAsync(scenario(budgets[i]), got.sink(i));
    ASSERT_TRUE(got.waitFor(3));
    EXPECT_EQ(got.count(), 3u);

    bool seen[3] = {false, false, false};
    for (auto &[idx, r] : got.done) {
        ASSERT_LT(idx, 3u);
        EXPECT_FALSE(seen[idx]) << "duplicate completion " << idx;
        seen[idx] = true;
        ASSERT_TRUE(r.ok) << r.errorCode << ": " << r.errorMessage;
        EXPECT_EQ(r.cacheHit, idx == 1);
    }
    // The hit's bytes are the primed submit's bytes.
    for (auto &[idx, r] : got.done) {
        if (idx == 1) {
            EXPECT_EQ(r.payload, primed.payload);
        }
    }

    ServiceStats s = svc.stats();
    EXPECT_EQ(s.cacheHits, 1u);
    EXPECT_EQ(s.cacheMisses, 3u); // primed + two misses
    EXPECT_EQ(s.served, 4u);
}

TEST_F(BatchTest, BatchMissesFanOutAcrossTheWorkerPool)
{
    // Four misses in flight on four workers should take roughly one
    // single-scenario time, not four. CPU work serializes on a
    // 1-core host, so the per-scenario cost is dominated by an
    // injected 250 ms worker stall — stalls overlap iff the misses
    // genuinely fan out. Serial execution would exceed 1000 ms.
    ServiceOptions opts;
    opts.workers = 4;
    opts.sweepConcurrency = 1;
    ScenarioService svc(test::profiles(), test::dvfs(), opts);
    // Warm the profile/runner caches outside the timed window.
    ASSERT_TRUE(svc.submit(scenario(0.99)).ok);

    ASSERT_FALSE(fault::arm("worker-stall:1:250,seed:1"));
    Collector got;
    auto t0 = std::chrono::steady_clock::now();
    const double budgets[] = {0.61, 0.66, 0.71, 0.76};
    for (std::size_t i = 0; i < 4; i++)
        svc.submitAsync(scenario(budgets[i]), got.sink(i));
    ASSERT_TRUE(got.waitFor(4));
    double wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    fault::disarm();

    for (auto &[idx, r] : got.done)
        ASSERT_TRUE(r.ok) << idx << ": " << r.errorMessage;
    EXPECT_GE(wallMs, 250.0); // every miss really stalled
    EXPECT_LT(wallMs, 900.0) << "misses did not run in parallel";
}

TEST_F(BatchTest, DeadlineExpiringMidSweepCancelsCooperatively)
{
    // One worker, a 300 ms stall before the sweep, a 100 ms
    // deadline: the job is popped immediately (so it is NOT shed
    // from the queue), the deadline expires during the stall, and
    // the sweep cancels at its first budget-point check.
    ServiceOptions opts;
    opts.workers = 1;
    ScenarioService svc(test::profiles(), test::dvfs(), opts);
    ASSERT_FALSE(fault::arm("worker-stall:1:300,seed:1"));

    ScenarioSpec spec = scenario(0.8);
    spec.deadlineMs = 100.0;
    auto r = svc.submit(spec);
    fault::disarm();

    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, "deadline_exceeded");
    EXPECT_NE(r.errorMessage.find("mid-sweep"), std::string::npos)
        << r.errorMessage;
    ServiceStats s = svc.stats();
    EXPECT_EQ(s.cancelledMidSweep, 1u);
    EXPECT_EQ(s.shedDeadline, 0u);
    EXPECT_EQ(s.served, 0u);

    // The worker is free and healthy: the same scenario without a
    // deadline computes normally.
    auto again = svc.submit(scenario(0.8));
    EXPECT_TRUE(again.ok) << again.errorCode;
}

TEST_F(BatchTest, DiskTierServesRestartBitIdentically)
{
    ServiceOptions opts;
    opts.cacheDir = cacheDir.path();

    std::string firstPayload;
    {
        ScenarioService svc(test::profiles(), test::dvfs(), opts);
        auto r = svc.submit(scenario(0.8));
        ASSERT_TRUE(r.ok) << r.errorCode;
        EXPECT_FALSE(r.cacheHit);
        firstPayload = r.payload;
        svc.drain();
    } // "restart": the memory tier dies with the service

    ScenarioService revived(test::profiles(), test::dvfs(), opts);
    auto r = revived.submit(scenario(0.8));
    ASSERT_TRUE(r.ok) << r.errorCode;
    EXPECT_TRUE(r.cacheHit);
    EXPECT_TRUE(r.diskHit);
    EXPECT_EQ(r.payload, firstPayload);

    // And the disk bytes are exactly what a direct sweep produces.
    ScenarioSpec spec = scenario(0.8);
    ExperimentRunner direct(test::profiles(), test::dvfs(),
                            spec.simConfig());
    EXPECT_EQ(r.payload,
              serializeResults(spec, direct.sweep(spec.sweepSpec())));

    ServiceStats s = revived.stats();
    EXPECT_EQ(s.diskHits, 1u);
    EXPECT_EQ(s.cacheHits, 1u);
    EXPECT_EQ(s.cacheMisses, 0u);
}

TEST_F(BatchTest, CorruptDiskEntryQuarantinedAndRecomputed)
{
    // Chaos: a corrupt disk entry must never reach a client — it is
    // quarantined and the scenario recomputed, with the recomputed
    // bytes identical to the originals.
    ServiceOptions opts;
    opts.cacheDir = cacheDir.path();

    std::string firstPayload;
    {
        ScenarioService svc(test::profiles(), test::dvfs(), opts);
        auto r = svc.submit(scenario(0.8));
        ASSERT_TRUE(r.ok);
        firstPayload = r.payload;
        svc.drain();
    }

    ASSERT_FALSE(fault::arm("disk-read-corrupt,seed:1"));
    ScenarioService revived(test::profiles(), test::dvfs(), opts);
    auto r = revived.submit(scenario(0.8));
    fault::disarm();
    ASSERT_TRUE(r.ok) << r.errorCode;
    EXPECT_FALSE(r.cacheHit); // recomputed, not served corrupt
    EXPECT_EQ(r.payload, firstPayload);
    ServiceStats s = revived.stats();
    EXPECT_EQ(s.diskQuarantined, 1u);
    EXPECT_EQ(s.diskHits, 0u);
    EXPECT_EQ(s.cacheMisses, 1u);
}

TEST_F(BatchTest, DiskTierEvictsToByteBudget)
{
    // Measure one entry's disk footprint, then rerun with a budget
    // that fits one entry but not two.
    std::uint64_t oneEntryBytes;
    {
        test::TempDir measured;
        ServiceOptions opts;
        opts.cacheDir = measured.path();
        opts.cacheDiskBytes = 0; // unbounded
        ScenarioService svc(test::profiles(), test::dvfs(), opts);
        ASSERT_TRUE(svc.submit(scenario(0.7)).ok);
        oneEntryBytes = svc.stats().diskBytes;
        ASSERT_GT(oneEntryBytes, 0u);
        svc.drain();
    }

    ServiceOptions opts;
    opts.cacheDir = cacheDir.path();
    opts.cacheDiskBytes = oneEntryBytes + 64;
    ScenarioService svc(test::profiles(), test::dvfs(), opts);
    ASSERT_TRUE(svc.submit(scenario(0.7)).ok);
    ASSERT_TRUE(svc.submit(scenario(0.9)).ok);
    ServiceStats s = svc.stats();
    EXPECT_GE(s.diskEvictions, 1u);
    EXPECT_EQ(s.diskEntries, 1u);
    EXPECT_LE(s.diskBytes, oneEntryBytes + 64);
}

TEST_F(BatchTest, TwoLiveServicesShareOneCacheDirectory)
{
    ServiceOptions opts;
    opts.cacheDir = cacheDir.path();
    ScenarioService a(test::profiles(), test::dvfs(), opts);
    ScenarioService b(test::profiles(), test::dvfs(), opts);

    auto computed = a.submit(scenario(0.8));
    ASSERT_TRUE(computed.ok);
    EXPECT_FALSE(computed.cacheHit);

    // b never computed this scenario; its disk probe finds a's
    // write and serves the identical bytes.
    auto shared = b.submit(scenario(0.8));
    ASSERT_TRUE(shared.ok);
    EXPECT_TRUE(shared.cacheHit);
    EXPECT_TRUE(shared.diskHit);
    EXPECT_EQ(shared.payload, computed.payload);
    EXPECT_EQ(b.stats().diskHits, 1u);
}

using test::parseOk;

/** Pipelined submits over real loopback sockets. */
class BatchServerTest : public ::testing::Test
{
  protected:
    void SetUp() override { gpmd.start(); }

    test::Gpmd gpmd;
};

TEST_F(BatchServerTest, BatchStreamsPerScenarioLinesAndPipelines)
{
    // One write carrying two submits AND a ping: the client owes
    // nothing before sending the next request.
    const std::string wire =
        R"({"id": 0, "verb": "submit", "scenario": )"
        R"({"combo": ["mcf"], "policy": "MaxBIPS", "budget": 0.7}})"
        "\n"
        R"({"id": 1, "verb": "submit", "scenario": )"
        R"({"combo": ["mcf"], "policy": "MaxBIPS", "budget": 0.9}})"
        "\n"
        R"({"id": "p", "verb": "ping"})"
        "\n";

    TcpStream c = gpmd.connect();
    ASSERT_TRUE(c.writeAll(wire));

    bool sawPing = false;
    bool sawId[2] = {false, false};
    for (int i = 0; i < 3; i++) {
        std::string line;
        ASSERT_EQ(c.readLine(line), TcpStream::ReadStatus::Line);
        json::Value r = parseOk(line);
        ASSERT_TRUE(r.find("ok") && r.find("ok")->asBool()) << line;
        if (r.find("id")->isString()) {
            EXPECT_EQ(r.find("id")->asString(), "p");
            sawPing = true;
            continue;
        }
        // A submit line: its id, and a spliced result identical to
        // a direct sweep.
        auto id = static_cast<std::size_t>(r.find("id")->asNumber());
        ASSERT_LT(id, 2u);
        sawId[id] = true;
        EXPECT_FALSE(r.find("cached")->asBool());

        ScenarioSpec spec;
        spec.combo = {"mcf"};
        spec.policy = "MaxBIPS";
        spec.budgets = {id == 0 ? 0.7 : 0.9};
        ExperimentRunner direct(test::profiles(), test::dvfs(),
                                spec.simConfig());
        std::string payload =
            serializeResults(spec, direct.sweep(spec.sweepSpec()));
        ASSERT_TRUE(r.find("result"));
        EXPECT_EQ(r.find("result")->canonical(),
                  parseOk(payload).canonical());
    }
    EXPECT_TRUE(sawPing);
    EXPECT_TRUE(sawId[0]);
    EXPECT_TRUE(sawId[1]);

    // The stats verb counts the cache traffic.
    std::string statsLine;
    ASSERT_TRUE(c.writeAll("{\"verb\": \"stats\"}\n"));
    ASSERT_EQ(c.readLine(statsLine), TcpStream::ReadStatus::Line);
    json::Value stats = parseOk(statsLine);
    const json::Value *sr = stats.find("result");
    ASSERT_TRUE(sr);
    EXPECT_EQ(sr->find("cacheMisses")->asNumber(), 2.0);
    EXPECT_EQ(sr->find("diskHits")->asNumber(), 0.0);
    EXPECT_EQ(sr->find("cancelledMidSweep")->asNumber(), 0.0);
}

} // namespace
} // namespace gpm
