#include "thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

namespace gpm
{

namespace
{

/** Set while a pool worker is executing, to detect nesting. */
thread_local bool inside_pool_worker = false;

/**
 * One parallelFor call. Helpers hold it by shared_ptr, so one that
 * starts after the call returned still finds it alive, with the
 * range exhausted; fn is touched only for claimed indices, all of
 * which complete before the caller returns.
 */
struct Loop
{
    Loop(std::size_t n, const std::function<void(std::size_t)> &fn)
        : n(n), fn(fn), pending(n)
    {
    }

    const std::size_t n;
    const std::function<void(std::size_t)> &fn;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};

    std::mutex mtx;
    std::condition_variable finished;
    /** Indices not yet run or skipped; the caller waits for 0. */
    std::size_t pending;
    std::exception_ptr error;

    /** Claim indices until the range is exhausted. */
    void drain()
    {
        std::size_t claimed = 0;
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            claimed++;
            if (failed.load(std::memory_order_relaxed))
                continue;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mtx);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
        if (claimed == 0)
            return;
        std::lock_guard<std::mutex> lock(mtx);
        pending -= claimed;
        if (pending == 0)
            finished.notify_one();
    }
};

} // namespace

std::size_t
defaultConcurrency()
{
    if (const char *s = std::getenv("GPM_THREADS")) {
        long v = std::atol(s);
        if (v > 0)
            return static_cast<std::size_t>(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(std::size_t concurrency)
{
    if (concurrency == 0)
        concurrency = defaultConcurrency();
    workers.reserve(concurrency - 1);
    for (std::size_t i = 0; i + 1 < concurrency; i++)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
    }
    cv.notify_all();
    for (auto &w : workers)
        w.join();
}

std::size_t
ThreadPool::concurrency() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return workers.size() + 1;
}

void
ThreadPool::workerLoop()
{
    inside_pool_worker = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mtx);
            cv.wait(lock,
                    [this] { return stopping || !tasks.empty(); });
            if (tasks.empty())
                return; // stopping and drained
            task = std::move(tasks.front());
            tasks.pop();
        }
        task();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn,
                        std::size_t concurrency)
{
    // Nested call from a worker, or nothing to share: run inline.
    if (inside_pool_worker || n <= 1 || concurrency == 1) {
        for (std::size_t i = 0; i < n; i++)
            fn(i);
        return;
    }

    auto loop = std::make_shared<Loop>(n, fn);
    std::size_t helpers;
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (concurrency == 0)
            concurrency = workers.size() + 1;
        helpers = std::min(concurrency, n) - 1;
        while (workers.size() < helpers)
            workers.emplace_back([this] { workerLoop(); });
        for (std::size_t h = 0; h < helpers; h++)
            tasks.emplace([loop] { loop->drain(); });
    }
    for (std::size_t h = 0; h < helpers; h++)
        cv.notify_one();

    loop->drain(); // the calling thread participates

    // Move the exception out: then the thread that rethrows it also
    // frees it, not a helper dropping the last reference to loop.
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(loop->mtx);
        loop->finished.wait(lock, [&] { return loop->pending == 0; });
        error = std::move(loop->error);
    }
    if (error)
        std::rethrow_exception(error);
}

void
parallelFor(std::size_t concurrency, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    // Starts with no worker. Never destroyed: a worker may still be
    // inside a task when exit() runs (a bench's fatal path), and
    // joining it from a static destructor would hang or join itself.
    static ThreadPool *const pool = new ThreadPool(1);
    pool->parallelFor(n, fn,
                      concurrency ? concurrency : defaultConcurrency());
}

} // namespace gpm
