/** @file The built gpmctl, run as a child process with --host over
 *  two in-process gpmd backends: it places each scenario (cluster
 *  scenarios included) on its RendezvousRing owner, serves payloads
 *  byte-identical to a direct submit, splits batch files by owner
 *  and prints their lines in input order, finishes a file larger
 *  than one client's queue share by retrying only what was refused,
 *  leaves invalid scenarios to the first endpoint's validation,
 *  takes a scenario only as a --json object,
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

    /** The fixture's scenario at @p budget, with @p extra fields
     *  (", \"key\": value" pairs) appended. */
    static std::string
    scenarioJson(const std::string &budget,
                 const std::string &extra = "")
    {
        return R"({"combo": ["mcf", "crafty"], "policy": "MaxBIPS", )"
               R"("budget": )" +
            budget + extra + "}";
    }

    /** gpmctl's arguments submitting the scenario object @p json. */
    static std::string
    submitJson(const std::string &json)
    {
        return "submit --json '" + json + "'";
    }

    static std::string
    submitArgs(const std::string &budget)
    {
        return submitJson(scenarioJson(budget));
    }

    /** A batch file holding @p text. */
    std::string
    batchFile(const std::string &text) const
    {
        std::string path = scratch.path() + "/batch.ndjson";
        std::FILE *f = std::fopen(path.c_str(), "w");
        EXPECT_TRUE(f) << path;
        if (f) {
            std::fputs(text.c_str(), f);
            std::fclose(f);
        }
        return path;
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
    test::TempDir scratch;
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
    std::string text;
    std::vector<std::uint64_t> share(nBackends, 0);
    for (std::size_t i = 0; i < n; i++) {
        text += scenarioJson(budgetArg(i)) + "\n";
        share[ownerOf(budgetArg(i))]++;
    }

    // Windows of 3 within each owner's group; the lines still print
    // in input order.
    CtlRun r = runGpmctl(hosts + " --max-inflight 3 submit-batch @" +
                         batchFile(text));
    EXPECT_EQ(r.status, 0) << r.out;
    std::vector<std::string> lines = splitLines(r.out);
    ASSERT_EQ(lines.size(), n) << r.out;
    std::set<std::size_t> seen;
    for (std::size_t i = 0; i < n; i++) {
        auto v = json::parse(lines[i]);
        ASSERT_TRUE(v.ok()) << lines[i];
        ASSERT_TRUE(v.value().find("ok")->asBool()) << lines[i];
        auto id = static_cast<std::size_t>(
            v.value().find("id")->asNumber());
        EXPECT_EQ(id, i) << lines[i];
        seen.insert(id);
    }
    EXPECT_EQ(seen.size(), n);
    for (std::size_t b = 0; b < nBackends; b++)
        EXPECT_EQ(backends[b].svc->stats().cacheMisses, share[b])
            << names[b];
}

TEST_F(GpmctlShardTest, BatchLargerThanTheFairShareFinishesUnderRetries)
{
    // 40 scenarios in one window to one daemon: more than one
    // client's share of its queue (0.5 x 64 = 32 queued requests),
    // so some come back rejected_overload; each retry re-sends only
    // those, on a new connection, until every scenario is served.
    const std::size_t n = 40;
    std::string text;
    for (std::size_t i = 0; i < n; i++) {
        char budget[32];
        std::snprintf(budget, sizeof(budget), "%.2f",
                      0.5 + 0.01 * static_cast<double>(i));
        text += R"({"combo": ["mcf"], "policy": "MaxBIPS", "budget": )" +
            std::string(budget) + "}\n";
    }
    CtlRun r = runGpmctl("--host " + names[0] +
                         " --retries 8 --retry-base-ms 10 submit-batch @" +
                         batchFile(text));
    EXPECT_EQ(r.status, 0) << r.out;
    std::vector<std::string> lines = splitLines(r.out);
    ASSERT_EQ(lines.size(), n) << r.out;
    for (std::size_t i = 0; i < n; i++) {
        auto v = json::parse(lines[i]);
        ASSERT_TRUE(v.ok()) << lines[i];
        EXPECT_TRUE(v.value().find("ok")->asBool()) << lines[i];
        EXPECT_EQ(v.value().find("id")->asNumber(),
                  static_cast<double>(i))
            << lines[i];
    }
    EXPECT_EQ(backends[0].svc->stats().cacheMisses, n);
}

TEST_F(GpmctlShardTest, InvalidBatchScenarioGetsItsOwnLine)
{
    // One invalid scenario among five: the others are served, and
    // it is answered "invalid" on its own line, in input order.
    const std::size_t n = 5, bad = 2;
    std::string text;
    for (std::size_t i = 0; i < n; i++)
        text += (i == bad ? R"({"combo": ["mcf"], "policy": "Nope", )"
                            R"("budget": 0.8})"
                          : scenarioJson(budgetArg(i))) +
            "\n";
    CtlRun r = runGpmctl(hosts + " submit-batch @" + batchFile(text));
    EXPECT_EQ(r.status, 2) << r.out;
    std::vector<std::string> lines = splitLines(r.out);
    ASSERT_EQ(lines.size(), n) << r.out;
    for (std::size_t i = 0; i < n; i++) {
        auto v = json::parse(lines[i]);
        ASSERT_TRUE(v.ok()) << lines[i];
        EXPECT_EQ(v.value().find("id")->asNumber(),
                  static_cast<double>(i))
            << lines[i];
        EXPECT_EQ(v.value().find("ok")->asBool(), i != bad) << lines[i];
        if (i == bad) {
            EXPECT_EQ(v.value().find("error")->find("code")->asString(),
                      "invalid")
                << lines[i];
        }
    }
}

TEST_F(GpmctlShardTest, PingAndClusterSubmitReachTheOwner)
{
    CtlRun ping = runGpmctl(hosts + " ping");
    EXPECT_EQ(ping.status, 0) << ping.out;
    EXPECT_NE(ping.out.find("\"pong\":true"), std::string::npos)
        << ping.out;

    const std::string cluster =
        R"({"cluster": {"chips": [)"
        R"({"combo": ["mcf", "crafty"], "policy": "MaxBIPS"},)"
        R"({"combo": ["gcc", "mesa"], "policy": "WaterFill"}],)"
        R"( "epochs": 2, "epochUs": 1000, "levels": 8},)"
        R"( "policy": "GreedyTurbo", "budget": 0.8})";
    const std::string args = submitJson(cluster);
    auto spec = parseScenario(json::parse(cluster).value());
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
    CtlRun r = runGpmctl(hosts + " " +
                         submitJson(scenarioJson(
                             "0.800", R"(, "deadlineMs": 100)")));
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
        submitJson(R"({"combo":["mcf"],"policy":"Nope","budget":0.8})");
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

TEST_F(GpmctlShardTest, ScenarioFlagsAreGoneAndSubmitNeedsJson)
{
    // The scenario is the --json object's business alone: each of
    // the old scenario flags is an unknown option, and a submit
    // without --json is a usage error. Neither reaches a daemon.
    for (const char *flag :
         {"--combo", "--combo-key", "--policy", "--budget", "--budgets",
          "--static-fit", "--explore-us", "--delta-us", "--contention",
          "--sensor-noise", "--deadline-ms", "--cluster-chip",
          "--epochs", "--epoch-us", "--levels"}) {
        CtlRun r = runGpmctl(hosts + " submit " + flag + " 1", "2>&1");
        EXPECT_EQ(r.status, 1) << flag << ": " << r.out;
        EXPECT_NE(r.out.find("unknown option '" + std::string(flag) +
                             "'"),
                  std::string::npos)
            << r.out;
    }
    CtlRun bare = runGpmctl(hosts + " submit", "2>&1");
    EXPECT_EQ(bare.status, 1) << bare.out;
    EXPECT_NE(bare.out.find("submit needs --json SCENARIO"),
              std::string::npos)
        << bare.out;
    EXPECT_NE(bare.out.find("usage: gpmctl"), std::string::npos)
        << bare.out;
    for (test::Gpmd &b : backends)
        EXPECT_EQ(b.svc->stats().cacheMisses, 0u);
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
