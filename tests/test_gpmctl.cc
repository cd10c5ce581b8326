/** @file The built gpmctl, run as a child process with --host over
 *  two in-process gpmd backends: it places each scenario (cluster
 *  scenarios included) on its RendezvousRing owner, serves payloads
 *  byte-identical to a direct submit, splits and reorders batches,
 *  leaves invalid scenarios to the first endpoint's validation,
 *  exits 2 on a server-side error such as an expired deadline,
 *  pretty-prints stats key-sorted on stderr, and gives up with exit
 *  1 when no endpoint answers. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "harness.hh"
#include "service/ring.hh"
#include "service/scenario.hh"
#include "util/fault.hh"

namespace gpm
{
namespace
{

/** gpmctl's exit status and what it printed. */
struct CtlRun
{
    int status = -1;
    std::string out;
};

/** Run gpmctl @p args; @p redirect picks the captured stream (by
 *  default stdout, with stderr discarded). */
CtlRun
runGpmctl(const std::string &args,
          const std::string &redirect = "2>/dev/null")
{
    std::string cmd =
        std::string(GPM_GPMCTL_PATH) + " " + args + " " + redirect;
    CtlRun run;
    std::FILE *p = ::popen(cmd.c_str(), "r");
    if (!p)
        return run;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0)
        run.out.append(buf, n);
    int st = ::pclose(p);
    run.status = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
    return run;
}

/** The "result" payload a submit response line splices in
 *  verbatim. */
std::string
resultOf(const std::string &line)
{
    const std::string key = ",\"result\":";
    std::size_t at = line.find(key);
    std::size_t end = line.rfind('}');
    if (at == std::string::npos || end == std::string::npos ||
        end < at + key.size())
        return "";
    return line.substr(at + key.size(), end - at - key.size());
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t pos = 0, nl;
    while ((nl = text.find('\n', pos)) != std::string::npos) {
        lines.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return lines;
}

class GpmctlShardTest : public ::testing::Test
{
  protected:
    static constexpr std::size_t nBackends = 2;

    void
    SetUp() override
    {
        for (test::Gpmd &b : backends) {
            b.start();
            names.push_back("127.0.0.1:" + std::to_string(b.port));
        }
        hosts = "--host " + names[0] + "," + names[1];
    }

    void
    TearDown() override
    {
        for (test::Gpmd &b : backends)
            b.stop();
        fault::disarm();
    }

    static std::string
    budgetArg(std::size_t k)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f",
                      0.5 + 0.03 * static_cast<double>(k));
        return buf;
    }

    static std::string
    scenarioJson(const std::string &budget)
    {
        return R"({"combo": ["mcf", "crafty"], "policy": "MaxBIPS", )"
               R"("budget": )" +
            budget + "}";
    }

    static std::string
    submitArgs(const std::string &budget)
    {
        return "submit --combo mcf,crafty --policy MaxBIPS --budget " +
            budget;
    }

    /** The backend RendezvousRing places @p budget's scenario on. */
    std::size_t
    ownerOf(const std::string &budget) const
    {
        auto spec =
            parseScenario(json::parse(scenarioJson(budget)).value());
        EXPECT_TRUE(spec.ok());
        return RendezvousRing(names).owner(spec.value().hash());
    }

    test::Gpmd backends[nBackends];
    std::vector<std::string> names;
    std::string hosts;
};

TEST_F(GpmctlShardTest, EachScenarioLandsOnItsRingOwner)
{
    const std::size_t k = 12;
    std::vector<std::uint64_t> share(nBackends, 0);
    for (std::size_t i = 0; i < k; i++) {
        share[ownerOf(budgetArg(i))]++;
        CtlRun r = runGpmctl(hosts + " " + submitArgs(budgetArg(i)));
        EXPECT_EQ(r.status, 0) << r.out;
        EXPECT_NE(r.out.find("\"cached\":false"), std::string::npos)
            << r.out;
    }
    // No --cache-dir: only the owner's memory tier can hit, so the
    // resubmits hit exactly where the first submits computed.
    for (std::size_t i = 0; i < k; i++) {
        CtlRun r = runGpmctl(hosts + " " + submitArgs(budgetArg(i)));
        EXPECT_EQ(r.status, 0) << r.out;
        EXPECT_NE(r.out.find("\"cached\":true"), std::string::npos)
            << r.out;
    }
    for (std::size_t b = 0; b < nBackends; b++) {
        ServiceStats s = backends[b].svc->stats();
        EXPECT_EQ(s.cacheMisses, share[b]) << names[b];
        EXPECT_EQ(s.cacheHits, share[b]) << names[b];
    }
}

TEST_F(GpmctlShardTest, RoutedPayloadMatchesDirectSubmit)
{
    const std::string budget = "0.800";
    CtlRun routed = runGpmctl(hosts + " " + submitArgs(budget));
    ASSERT_EQ(routed.status, 0) << routed.out;

    // The other backend computes the same scenario on its own; the
    // content-addressed payload, and so the whole line, match.
    std::size_t other = 1 - ownerOf(budget);
    CtlRun direct = runGpmctl("--host " + names[other] + " " +
                              submitArgs(budget));
    ASSERT_EQ(direct.status, 0) << direct.out;
    EXPECT_EQ(routed.out, direct.out);
    EXPECT_EQ(backends[other].svc->stats().cacheMisses, 1u);
    EXPECT_EQ(backends[1 - other].svc->stats().cacheMisses, 1u);
}

TEST_F(GpmctlShardTest, BatchSplitsByOwnerAndPrintsInInputOrder)
{
    const std::size_t n = 10;
    char path[] = "/tmp/gpm_gpmctl_batch_XXXXXX";
    int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);
    std::string text;
    std::vector<std::uint64_t> share(nBackends, 0);
    for (std::size_t i = 0; i < n; i++) {
        text += scenarioJson(budgetArg(i)) + "\n";
        share[ownerOf(budgetArg(i))]++;
    }
    ASSERT_EQ(::write(fd, text.data(), text.size()),
              static_cast<ssize_t>(text.size()));
    ::close(fd);

    // Windows of 3 within each owner's group exercise the
    // daemon-to-input index remap.
    CtlRun r = runGpmctl(hosts + " --max-inflight 3 submit-batch @" +
                         path);
    ::unlink(path);
    EXPECT_EQ(r.status, 0) << r.out;
    std::vector<std::string> lines = splitLines(r.out);
    ASSERT_EQ(lines.size(), n) << r.out;
    std::set<std::size_t> seen;
    for (std::size_t i = 0; i < n; i++) {
        auto v = json::parse(lines[i]);
        ASSERT_TRUE(v.ok()) << lines[i];
        ASSERT_TRUE(v.value().find("ok")->asBool()) << lines[i];
        auto idx = static_cast<std::size_t>(
            v.value().find("index")->asNumber());
        EXPECT_EQ(idx, i) << lines[i];
        seen.insert(idx);
    }
    EXPECT_EQ(seen.size(), n);
    for (std::size_t b = 0; b < nBackends; b++)
        EXPECT_EQ(backends[b].svc->stats().cacheMisses, share[b])
            << names[b];
}

TEST_F(GpmctlShardTest, PingAndClusterSubmitReachTheOwner)
{
    CtlRun ping = runGpmctl(hosts + " ping");
    EXPECT_EQ(ping.status, 0) << ping.out;
    EXPECT_NE(ping.out.find("\"pong\":true"), std::string::npos)
        << ping.out;

    const std::string args =
        "submit --cluster-chip mcf,crafty:MaxBIPS "
        "--cluster-chip gcc,mesa:WaterFill --policy GreedyTurbo "
        "--epochs 2 --epoch-us 1000 --levels 8 --budget 0.8";
    auto spec = parseScenario(
        json::parse(R"({"cluster": {"chips": [)"
                    R"({"combo": ["mcf", "crafty"], "policy": "MaxBIPS"},)"
                    R"({"combo": ["gcc", "mesa"], "policy": "WaterFill"}],)"
                    R"( "epochs": 2, "epochUs": 1000, "levels": 8},)"
                    R"( "policy": "GreedyTurbo", "budget": 0.8})")
            .value());
    ASSERT_TRUE(spec.ok()) << spec.error();
    std::size_t owner = RendezvousRing(names).owner(spec.value().hash());

    // Ground truth: the equivalent scenario submitted in-process.
    ScenarioService direct(test::profiles(), test::dvfs());
    auto want = direct.submit(spec.value());
    ASSERT_TRUE(want.ok) << want.errorCode << ": " << want.errorMessage;

    CtlRun first = runGpmctl(hosts + " " + args);
    ASSERT_EQ(first.status, 0) << first.out;
    EXPECT_NE(first.out.find("\"cached\":false"), std::string::npos)
        << first.out;
    EXPECT_EQ(resultOf(first.out), want.payload);

    CtlRun again = runGpmctl(hosts + " " + args);
    ASSERT_EQ(again.status, 0) << again.out;
    EXPECT_NE(again.out.find("\"cached\":true"), std::string::npos)
        << again.out;
    EXPECT_EQ(resultOf(again.out), want.payload);
    EXPECT_EQ(backends[owner].svc->stats().clusterRequests, 1u);
    EXPECT_EQ(backends[1 - owner].svc->stats().clusterRequests, 0u);
}

TEST_F(GpmctlShardTest, ExpiredDeadlineExitsTwoAndCancelsMidSweep)
{
    // The stall outlives the 100 ms deadline, so the owner's sweep
    // cancels at its first budget-point check.
    ASSERT_FALSE(fault::arm("worker-stall:1:400"));
    CtlRun r =
        runGpmctl(hosts + " " + submitArgs("0.800") + " --deadline-ms 100");
    EXPECT_EQ(r.status, 2) << r.out;
    EXPECT_NE(r.out.find("deadline_exceeded"), std::string::npos)
        << r.out;
    std::size_t owner = ownerOf("0.800");
    EXPECT_EQ(backends[owner].svc->stats().cancelledMidSweep, 1u);
    EXPECT_EQ(backends[1 - owner].svc->stats().cancelledMidSweep, 0u);
}

TEST_F(GpmctlShardTest, StatsPrintsKeySortedCountersOnStderr)
{
    // Capture stderr only: the raw JSON line stays on stdout.
    CtlRun r = runGpmctl(hosts + " stats", "2>&1 >/dev/null");
    EXPECT_EQ(r.status, 0) << r.out;
    std::vector<std::string> keys;
    for (const std::string &line : splitLines(r.out)) {
        ASSERT_EQ(line.rfind("gpmctl: ", 0), 0u) << line;
        std::size_t colon = line.find(": ", 8);
        ASSERT_NE(colon, std::string::npos) << line;
        keys.push_back(line.substr(8, colon - 8));
    }
    EXPECT_GT(keys.size(), 10u) << r.out;
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end())) << r.out;
    EXPECT_NE(r.out.find("gpmctl: breakerStateDisk: closed\n"),
              std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("gpmctl: breakerStateProfile: closed\n"),
              std::string::npos)
        << r.out;
}

TEST_F(GpmctlShardTest, InvalidScenarioIsAnsweredByTheFirstEndpoint)
{
    const std::string invalid =
        "submit --combo mcf --policy Nope --budget 0.8";
    CtlRun r = runGpmctl(hosts + " " + invalid);
    EXPECT_EQ(r.status, 2) << r.out;
    EXPECT_NE(r.out.find("\"code\":\"invalid\""), std::string::npos)
        << r.out;

    // With a dead first endpoint and no retries, the invalid
    // scenario fails in transport: it went to the first endpoint,
    // not to a ring owner.
    backends[0].stop();
    CtlRun dead = runGpmctl("--host " + names[0] + "," + names[1] +
                            " " + invalid);
    EXPECT_EQ(dead.status, 1) << dead.out;
}

TEST_F(GpmctlShardTest, WholeFleetDownExitsOneAfterRetries)
{
    backends[0].stop();
    backends[1].stop();
    CtlRun submit = runGpmctl(hosts + " --retries 3 --retry-base-ms 1 " +
                              submitArgs("0.800"));
    EXPECT_EQ(submit.status, 1) << submit.out;
    EXPECT_TRUE(submit.out.empty()) << submit.out;
    CtlRun ping = runGpmctl(hosts + " --retries 3 --retry-base-ms 1 ping");
    EXPECT_EQ(ping.status, 1) << ping.out;
}

} // namespace
} // namespace gpm
