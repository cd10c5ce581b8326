/**
 * @file
 * One process-wide thread pool behind parallelFor — the engine of
 * ExperimentRunner::sweep, ClusterManager::run,
 * ProfileLibrary::buildSuite and the parallel bench harnesses.
 *
 * Design points (kept deliberately simple — the work is a modest
 * number of coarse, independent simulation runs, so a plain
 * mutex-protected queue beats work stealing on clarity and is far
 * from being the bottleneck):
 *
 *  - The free parallelFor(concurrency, n, fn) runs on one pool per
 *    process, created on first use and grown on demand. A call with
 *    n <= 1 or concurrency 1 runs on the calling thread and starts
 *    no thread, so a one-point sweep costs a plain loop.
 *  - ThreadPool(n) provides a *concurrency* of n: n - 1 worker
 *    threads plus the calling thread, which participates in every
 *    parallelFor. A call may ask for more; the pool then grows to
 *    the largest concurrency any call has used (it never shrinks).
 *  - parallelFor(n, fn) dispatches fn(0) .. fn(n - 1). Indices are
 *    handed out through an atomic counter, so completion order is
 *    nondeterministic but any output written to slot i of a
 *    presized array lands in deterministic position.
 *  - The caller waits for indices, not for helpers: it returns once
 *    every index has run (or been skipped after an exception). A
 *    helper that has not started by then finds nothing left to do,
 *    so callers sharing the pool never queue behind each other's
 *    work; with every worker busy, the caller runs the whole range.
 *  - Exceptions thrown by fn are captured; the first one is
 *    rethrown on the calling thread (indices not yet started are
 *    skipped once an exception is seen).
 *  - parallelFor called from inside a pool worker (nested
 *    parallelism) runs the loop inline on that worker.
 */

#ifndef GPM_UTIL_THREAD_POOL_HH
#define GPM_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gpm
{

/** Concurrency to use when the caller passes 0: GPM_THREADS when
 *  set (and > 0), read on every call, otherwise
 *  std::thread::hardware_concurrency(), read once per process. */
std::size_t defaultConcurrency();

class ThreadPool
{
  public:
    /**
     * @param concurrency total parallelism including the calling
     *        thread; 0 means defaultConcurrency().
     */
    explicit ThreadPool(std::size_t concurrency = 0);

    /** Joins the workers once the queue is empty. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency (worker threads + the calling thread). */
    std::size_t concurrency() const;

    /**
     * Run fn(0) .. fn(n - 1) on at most @p concurrency threads, the
     * calling thread included (0 = the pool's concurrency); the pool
     * first grows to min(concurrency, n) if it is smaller. Returns
     * when every index has run or been skipped after an exception;
     * rethrows the first exception on the calling thread.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn,
                     std::size_t concurrency = 0);

  private:
    void workerLoop();

    std::vector<std::thread> workers;
    std::queue<std::function<void()>> tasks;
    mutable std::mutex mtx;
    std::condition_variable cv;
    bool stopping = false;
};

/**
 * Run fn(0) .. fn(n - 1) with the given concurrency
 * (0 = defaultConcurrency()) on the process-wide pool. Runs on the
 * calling thread, starting no thread, when concurrency is 1 or
 * n <= 1.
 */
void parallelFor(std::size_t concurrency, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

} // namespace gpm

#endif // GPM_UTIL_THREAD_POOL_HH
