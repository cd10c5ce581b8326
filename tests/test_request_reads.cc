/** @file A request reads no file: in-process cold submits, flat and
 *  cluster, make no read syscall beyond what reading the counter
 *  itself costs, and neither does defaultConcurrency() once it has
 *  read the hardware thread count. The counter is syscr from
 *  /proc/self/io, summed over every thread of the process, so this
 *  suite stays out of the ThreadSanitizer run, whose runtime reads
 *  /proc on its own. */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "harness.hh"
#include "service/service.hh"
#include "trace/workload.hh"
#include "util/thread_pool.hh"

namespace gpm
{
namespace
{

/** Read syscalls this process has made: syscr in /proc/self/io,
 *  taken with one open, one read and one close. */
std::uint64_t
readSyscalls()
{
    int fd = ::open("/proc/self/io", O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return 0;
    char buf[512];
    ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
    ::close(fd);
    if (n <= 0)
        return 0;
    buf[n] = '\0';
    const char *at = std::strstr(buf, "syscr:");
    return at ? std::strtoull(at + 6, nullptr, 10) : 0;
}

/** What one readSyscalls() adds to the next one's count: the window
 *  a submit must not widen. */
std::uint64_t
emptyWindow()
{
    std::uint64_t a = readSyscalls();
    std::uint64_t b = readSyscalls();
    return b - a;
}

ScenarioSpec
parsed(const std::string &text)
{
    auto v = json::parse(text);
    EXPECT_TRUE(v.ok()) << text;
    auto s = parseScenario(v.ok() ? v.value() : json::Value());
    EXPECT_TRUE(s.ok()) << text << " -> " << (s.ok() ? "" : s.error());
    return s.ok() ? s.value() : ScenarioSpec{};
}

/** A three-chip cluster at @p budget over 2way1, mcf and crafty. */
ScenarioSpec
cluster(double budget)
{
    return parsed(
        R"({"cluster": {"chips": [
              {"combo": "2way1", "policy": "MaxBIPS", "count": 2},
              {"combo": ["mcf", "crafty"], "policy": "WaterFill"}],
            "epochs": 2, "epochUs": 1000},
            "policy": "MaxBIPS-DP", "budget": )" +
        std::to_string(budget) + "}");
}

TEST(RequestReads, ColdSubmitsReadNoFile)
{
    ASSERT_GT(readSyscalls(), 0u) << "/proc/self/io is not readable";

    // 50 distinct cold scenarios: the ten Table 2 combinations at
    // five budgets, under perfbench cold's four policies.
    const char *policies[] = {"MaxBIPS", "Priority", "PullHiPushLo",
                              "ChipWideDVFS"};
    std::vector<ScenarioSpec> specs;
    std::set<std::string> names;
    for (double budget : {0.6, 0.7, 0.8, 0.9, 1.0}) {
        for (const auto &[key, combo] : benchmarkCombinations()) {
            ScenarioSpec s;
            s.combo = combo;
            s.policy = policies[specs.size() % 4];
            s.budgets = {budget};
            specs.push_back(s);
            names.insert(combo.begin(), combo.end());
        }
    }
    ASSERT_EQ(specs.size(), 50u);
    for (const char *name : {"mcf", "crafty"})
        names.insert(name);
    for (const auto &n : combination("2way1"))
        names.insert(n);
    // Every profile is loaded before the window opens.
    for (const auto &n : names)
        test::profiles().get(n);

    ServiceOptions opts; // sweepConcurrency 0, no disk tier
    ASSERT_EQ(opts.sweepConcurrency, 0u);
    ASSERT_TRUE(opts.cacheDir.empty());
    ScenarioService svc(test::profiles(), test::dvfs(), opts);

    // Before the window: a thread's first allocation (glibc sizes
    // its arenas once per process), and one flat and one cluster
    // request, so the service's workers and the pool's helpers have
    // started.
    std::thread([] { std::make_unique<std::string>(256, 'x'); }).join();
    ScenarioSpec warm = specs[0];
    warm.budgets = {0.5};
    ASSERT_TRUE(svc.submit(warm).ok);
    ASSERT_TRUE(svc.submit(cluster(0.5)).ok);

    const std::uint64_t empty = emptyWindow();
    for (const ScenarioSpec &s : specs) {
        std::uint64_t before = readSyscalls();
        auto r = svc.submit(s);
        std::uint64_t reads = readSyscalls() - before;
        ASSERT_TRUE(r.ok) << r.errorCode << ": " << r.errorMessage;
        EXPECT_FALSE(r.cacheHit);
        EXPECT_EQ(reads, empty) << s.canonicalText();
    }

    std::uint64_t before = readSyscalls();
    auto r = svc.submit(cluster(0.8));
    std::uint64_t reads = readSyscalls() - before;
    ASSERT_TRUE(r.ok) << r.errorCode << ": " << r.errorMessage;
    EXPECT_FALSE(r.cacheHit);
    EXPECT_EQ(reads, empty);
    EXPECT_EQ(svc.stats().cacheMisses, 53u);
}

TEST(RequestReads, DefaultConcurrencyReadsTheHardwareCountOnce)
{
    const std::uint64_t empty = emptyWindow();
    std::uint64_t before = readSyscalls();
    std::size_t sum = 0;
    for (int i = 0; i < 1000; i++)
        sum += defaultConcurrency();
    std::uint64_t reads = readSyscalls() - before;
    EXPECT_GE(sum, 1000u);
    // The first call in the process may read it; no other call does.
    EXPECT_LE(reads, empty + 1);
}

} // namespace
} // namespace gpm
