/** @file Tests for the ThreadPool / parallelFor engine behind
 *  ExperimentRunner::sweep: index coverage, exception propagation,
 *  degenerate sizes, nested calls, callers sharing one pool, and
 *  growth on demand. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hh"

namespace gpm
{
namespace
{

TEST(ThreadPool, ConcurrencyCountsCallingThread)
{
    ThreadPool p1(1);
    EXPECT_EQ(p1.concurrency(), 1u);
    ThreadPool p4(4);
    EXPECT_EQ(p4.concurrency(), 4u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    for (std::size_t conc : {1u, 2u, 8u}) {
        ThreadPool pool(conc);
        constexpr std::size_t n = 1000;
        std::vector<std::atomic<int>> hits(n);
        pool.parallelFor(n, [&](std::size_t i) { hits[i]++; });
        for (std::size_t i = 0; i < n; i++)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ParallelForWritesLandInDeterministicSlots)
{
    ThreadPool pool(4);
    std::vector<std::size_t> out(257, 0);
    pool.parallelFor(out.size(),
                     [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < out.size(); i++)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ZeroAndSingleTaskWork)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, [&](std::size_t) { calls++; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        calls++;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](std::size_t i) {
                                      if (i == 42)
                                          throw std::runtime_error(
                                              "boom");
                                  }),
                 std::runtime_error);
    // The pool must remain usable after a failed loop.
    std::atomic<int> ok{0};
    pool.parallelFor(10, [&](std::size_t) { ok++; });
    EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, ExceptionAbandonsRemainingIndices)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    try {
        pool.parallelFor(100000, [&](std::size_t) {
            ran++;
            throw std::runtime_error("first");
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &) {
    }
    // Far fewer than all indices actually executed.
    EXPECT_LT(ran.load(), 100000);
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool pool(4);
    std::atomic<int> inner_total{0};
    // Each outer task runs a nested loop; the nested call must not
    // deadlock on the pool's own queue.
    pool.parallelFor(8, [&](std::size_t) {
        pool.parallelFor(16,
                         [&](std::size_t) { inner_total++; });
    });
    EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPool, CallerCompletesWhileTheOnlyWorkerIsParked)
{
    ThreadPool pool(2);
    std::latch release(1);
    std::atomic<int> parked{0};
    // Another caller's loop parks the only worker (and that caller)
    // on the latch.
    std::thread other([&] {
        pool.parallelFor(2, [&](std::size_t) {
            parked++;
            release.wait();
        });
    });
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (parked.load() < 2 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    EXPECT_EQ(parked.load(), 2);

    // A loop that waited on its unstarted helper would hang here, so
    // run it on a thread of its own and bound the wait.
    std::vector<std::thread::id> ran_on(100);
    std::thread::id caller;
    auto done = std::async(std::launch::async, [&] {
        caller = std::this_thread::get_id();
        pool.parallelFor(ran_on.size(), [&](std::size_t i) {
            ran_on[i] = std::this_thread::get_id();
        });
    });
    bool finished = done.wait_for(std::chrono::seconds(10)) ==
        std::future_status::ready;
    release.count_down();
    other.join();
    done.get();
    ASSERT_TRUE(finished) << "parallelFor waited on a parked worker";
    for (std::size_t i = 0; i < ran_on.size(); i++)
        EXPECT_EQ(ran_on[i], caller) << "index " << i;
}

TEST(ThreadPool, ConcurrentCallersSeeOnlyTheirOwnIndicesAndErrors)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 2000;
    for (int round = 0; round < 20; round++) {
        std::vector<std::atomic<int>> hits[2] = {
            std::vector<std::atomic<int>>(n),
            std::vector<std::atomic<int>>(n)};
        std::string caught[2];
        std::latch start(2);
        auto caller = [&](int c) {
            start.arrive_and_wait();
            pool.parallelFor(n, [&](std::size_t i) { hits[c][i]++; });
            try {
                pool.parallelFor(n, [&](std::size_t) {
                    throw std::runtime_error("caller " +
                                             std::to_string(c));
                });
            } catch (const std::runtime_error &e) {
                caught[c] = e.what();
            }
        };
        std::thread t0(caller, 0), t1(caller, 1);
        t0.join();
        t1.join();
        for (int c = 0; c < 2; c++) {
            for (std::size_t i = 0; i < n; i++)
                ASSERT_EQ(hits[c][i].load(), 1)
                    << "caller " << c << " index " << i;
            EXPECT_EQ(caught[c], "caller " + std::to_string(c));
        }
    }
}

TEST(ThreadPool, OneIndexOrOneThreadRunsOnTheCaller)
{
    const auto self = std::this_thread::get_id();
    std::vector<std::thread::id> ran_on;
    auto record = [&](std::size_t i) {
        ran_on[i] = std::this_thread::get_id();
    };
    for (std::size_t conc : {0u, 1u, 4u}) {
        ran_on.assign(1, {});
        parallelFor(conc, 1, record);
        EXPECT_EQ(ran_on[0], self) << "concurrency " << conc;
    }
    ran_on.assign(64, {});
    parallelFor(1, ran_on.size(), record);
    for (std::size_t i = 0; i < ran_on.size(); i++)
        EXPECT_EQ(ran_on[i], self) << "index " << i;
}

TEST(ThreadPool, GrowsToTheLargestConcurrencyAsked)
{
    ThreadPool pool(1);
    std::atomic<int> ran{0};
    pool.parallelFor(100, [&](std::size_t) { ran++; }, 4);
    EXPECT_EQ(pool.concurrency(), 4u);
    // Never more threads than indices, and never shrinks.
    pool.parallelFor(3, [&](std::size_t) { ran++; }, 8);
    pool.parallelFor(100, [&](std::size_t) { ran++; }, 2);
    EXPECT_EQ(pool.concurrency(), 4u);
    EXPECT_EQ(ran.load(), 203);
}

TEST(ThreadPool, FreeParallelForMatchesSerialLoop)
{
    for (std::size_t conc : {0u, 1u, 3u}) {
        std::vector<int> out(100, 0);
        parallelFor(conc, out.size(),
                    [&](std::size_t i) { out[i] = static_cast<int>(i) + 1; });
        EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0),
                  100 * 101 / 2);
    }
}

TEST(ThreadPool, DefaultConcurrencyHonoursEnv)
{
    // GPM_THREADS wins over hardware_concurrency when set.
    setenv("GPM_THREADS", "3", 1);
    EXPECT_EQ(defaultConcurrency(), 3u);
    setenv("GPM_THREADS", "0", 1);
    EXPECT_GE(defaultConcurrency(), 1u);
    unsetenv("GPM_THREADS");
    EXPECT_GE(defaultConcurrency(), 1u);
}

} // namespace
} // namespace gpm
