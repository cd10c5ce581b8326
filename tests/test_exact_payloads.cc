/** @file Frozen result payloads: the FNV-1a digest of
 *  serializeResults for every Table 2 combination under MaxBIPS,
 *  Oracle, MinPower, HistoryMaxBIPS, Static and the paper's other
 *  three policies (Priority, PullHiPushLo, ChipWideDVFS), for many64
 *  under the approximate engines with a phase-shift stride, for a
 *  few scenarios with a sim knob the delta loop branches on, and of
 *  serializeClusterResults for one cluster scenario, each over a
 *  budget list at the scale of the other end-to-end tests. The
 *  digests pin the policies' answers, tie-breaks included, and the
 *  serializers' bytes: the exact-search rows were recorded before
 *  the search was rewritten, the knob rows before the delta loop
 *  and the profile cursor were, the others before the serializers
 *  were. */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_manager.hh"
#include "harness.hh"
#include "service/scenario.hh"
#include "trace/workload.hh"

namespace gpm
{
namespace
{

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 1099511628211ull;
    }
    return h;
}

/** The sim knob a row turns on; the others keep their defaults. */
enum class Knob
{
    None,
    Contention,  ///< the analytic contention model (dilation > 1)
    SensorNoise, ///< 5% noise on the local monitors' samples
};

struct Frozen
{
    const char *combo;
    const char *policy;
    std::uint64_t digest;
    Knob knob = Knob::None;
};

const Frozen frozen[] = {
    {"2way1", "MaxBIPS", 0xbdef0dc06db544fbull},
    {"2way1", "Oracle", 0xaaf00499ed814c8full},
    {"2way1", "MinPower", 0xc7a8091643841b89ull},
    {"2way1", "HistoryMaxBIPS", 0x6d5ba9e5eea69a0bull},
    {"2way1", "Static", 0x99bbd45db4920439ull},
    {"2way1", "Priority", 0x13ae25b91e3d4738ull},
    {"2way1", "PullHiPushLo", 0x9a1ec7fb6d519897ull},
    {"2way1", "ChipWideDVFS", 0x788c738f88e4bd15ull},
    {"2way2", "MaxBIPS", 0x6b203a491edcffd1ull},
    {"2way2", "Oracle", 0x3155fb61a3cab297ull},
    {"2way2", "MinPower", 0xcdde9b734ebcf9e1ull},
    {"2way2", "HistoryMaxBIPS", 0x650d0a9260057e07ull},
    {"2way2", "Static", 0x181a833658dfc346ull},
    {"2way2", "Priority", 0xbefb18b6371ffe13ull},
    {"2way2", "PullHiPushLo", 0x83ec05389aabf61ull},
    {"2way2", "ChipWideDVFS", 0xdf80c550dc1bd3aull},
    {"2way3", "MaxBIPS", 0x360d1a36c4eb6aceull},
    {"2way3", "Oracle", 0xa6e673043d224672ull},
    {"2way3", "MinPower", 0xb5724000b0b59de3ull},
    {"2way3", "HistoryMaxBIPS", 0x2e542eaac8e20188ull},
    {"2way3", "Static", 0xfdaedff12508ba22ull},
    {"2way3", "Priority", 0x3fd1a8fc6b0b5beull},
    {"2way3", "PullHiPushLo", 0xe4425b6a74043cb7ull},
    {"2way3", "ChipWideDVFS", 0xbb3f5e4097f83d63ull},
    {"2way4", "MaxBIPS", 0xbc13900c582b70adull},
    {"2way4", "Oracle", 0xde49873fc2cb1944ull},
    {"2way4", "MinPower", 0xd38743d6d378381ull},
    {"2way4", "HistoryMaxBIPS", 0x7f4f5716564ad14aull},
    {"2way4", "Static", 0x9cfc1ede9a9f8a9dull},
    {"2way4", "Priority", 0xa659f4bb78bdf7bbull},
    {"2way4", "PullHiPushLo", 0xb14dcf8a063910cull},
    {"2way4", "ChipWideDVFS", 0x886ea5c5b6212fa1ull},
    {"4way1", "MaxBIPS", 0x905fc3ca860fff0ull},
    {"4way1", "Oracle", 0xa243fc53d234413aull},
    {"4way1", "MinPower", 0x3a8205869c2eeda5ull},
    {"4way1", "HistoryMaxBIPS", 0xfbbc15d685c3aa85ull},
    {"4way1", "Static", 0xfe92639a039ffb73ull},
    {"4way1", "Priority", 0x6df7a4c1abbabd76ull},
    {"4way1", "PullHiPushLo", 0xf7b3427d66715ae6ull},
    {"4way1", "ChipWideDVFS", 0xb8b37cdb7a863d5dull},
    {"4way1", "MaxBIPS", 0x3220250409de9609ull, Knob::Contention},
    {"4way1", "MaxBIPS", 0xb609178a99e12141ull, Knob::SensorNoise},
    {"4way2", "MaxBIPS", 0xd5eaf1db1f5b15d3ull},
    {"4way2", "Oracle", 0x57b2b7c3d8806a3dull},
    {"4way2", "MinPower", 0xac9283bedcb58406ull},
    {"4way2", "HistoryMaxBIPS", 0xf314b0773c252c4dull},
    {"4way2", "Static", 0xe7b6a003653447bbull},
    {"4way2", "Priority", 0x3aedc1992d3bddc7ull},
    {"4way2", "PullHiPushLo", 0xa0a4ec74e770d964ull},
    {"4way2", "ChipWideDVFS", 0x5cad479f868e361cull},
    {"4way3", "MaxBIPS", 0x12eb80a5cf928184ull},
    {"4way3", "Oracle", 0x53f6f24170df3b6full},
    {"4way3", "MinPower", 0xc210bbc10cee1a92ull},
    {"4way3", "HistoryMaxBIPS", 0xe0e6bad00d88e58aull},
    {"4way3", "Static", 0xde0ce9cae9d26906ull},
    {"4way3", "Priority", 0x57db1e41585ee157ull},
    {"4way3", "PullHiPushLo", 0xd5afe45a04eb72c1ull},
    {"4way3", "ChipWideDVFS", 0xf68dc1122a8ec454ull},
    {"4way4", "MaxBIPS", 0xf63eba870d4c3ff8ull},
    {"4way4", "Oracle", 0x9d8d3c4e0dbac962ull},
    {"4way4", "MinPower", 0x4b83a64066a7426dull},
    {"4way4", "HistoryMaxBIPS", 0xfed2372a465f103ull},
    {"4way4", "Static", 0xe66f68ec166ed0c0ull},
    {"4way4", "Priority", 0x11dc6ebfb4f8585ull},
    {"4way4", "PullHiPushLo", 0x5dc266d34fcb63f7ull},
    {"4way4", "ChipWideDVFS", 0x6a5f841e65e9b0b4ull},
    {"8way1", "MaxBIPS", 0x93dbd3603c415c46ull},
    {"8way1", "Oracle", 0x7dd7cd507698814full},
    {"8way1", "MinPower", 0x4806eeca1d31d53eull},
    {"8way1", "HistoryMaxBIPS", 0x7532c0f23e73ce65ull},
    {"8way1", "Static", 0xae3ae06c8e251bb8ull},
    {"8way1", "Priority", 0x983fbe897c2e747cull},
    {"8way1", "PullHiPushLo", 0x69c9ce42c46f3475ull},
    {"8way1", "ChipWideDVFS", 0xa13ab0b81a5d773ull},
    {"8way1", "Oracle", 0xa47b6eee8333bb3dull, Knob::Contention},
    {"8way2", "MaxBIPS", 0x1da43744134f41d6ull},
    {"8way2", "Oracle", 0xf4567b062c4a1a3full},
    {"8way2", "MinPower", 0x3eabeebc3eb8eaf8ull},
    {"8way2", "HistoryMaxBIPS", 0x60c38ca02c0d2727ull},
    {"8way2", "Static", 0xea4def7236910c9bull},
    {"8way2", "Priority", 0x54211cfd658e76beull},
    {"8way2", "PullHiPushLo", 0xa725762deeba5f25ull},
    {"8way2", "ChipWideDVFS", 0xad6ec0080db3a8ceull},
    {"many64", "MaxBIPS-DP", 0x9bb2896bb012b74cull},
    {"many64", "WaterFill", 0x60821930e428db92ull},
    {"many64", "GreedyTurbo", 0x66f55d5fc21609b7ull},
    {"many64", "GreedyTurbo", 0x72a20a41b8f02e39ull, Knob::Contention},
};

/** serializeClusterResults of clusterScenario() at both budgets. */
constexpr std::uint64_t frozenCluster = 0xa2f5778db747e1dfull;

class ExactPayloads : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ExactPayloads, MatchFrozenDigests)
{
    const std::string key = GetParam();
    // The many-core rows run phase-shifted, as perfbench's manycore
    // workload does.
    const bool many = key.rfind("many", 0) == 0;
    const std::vector<std::string> *combo = findCombination(key);
    ASSERT_NE(combo, nullptr);
    int plain = 0;
    for (const Frozen &f : frozen) {
        if (key != f.combo)
            continue;
        ScenarioSpec spec;
        if (many)
            spec.phaseShiftStride = 0.1;
        spec.contention = f.knob == Knob::Contention;
        spec.sensorNoise = f.knob == Knob::SensorNoise ? 0.05 : 0.0;
        spec.combo = *combo;
        spec.policy = f.policy;
        spec.budgets = {0.55, 0.65, 0.75, 0.85, 0.95};
        ExperimentRunner runner(test::profiles(0.05), test::dvfs(),
                                spec.simConfig());
        std::string payload =
            serializeResults(spec, runner.sweep(spec.sweepSpec(), 1));
        EXPECT_EQ(fnv1a(payload), f.digest)
            << "{\"" << key << "\", \"" << f.policy << "\", 0x"
            << std::hex << fnv1a(payload) << "ull, knob "
            << static_cast<int>(f.knob) << "},";
        plain += f.knob == Knob::None;
    }
    // Every policy has a row at the default knobs.
    EXPECT_EQ(plain, many ? 3 : 8);
}

INSTANTIATE_TEST_SUITE_P(
    Table2, ExactPayloads,
    ::testing::Values("2way1", "2way2", "2way3", "2way4", "4way1",
                      "4way2", "4way3", "4way4", "8way1", "8way2"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

INSTANTIATE_TEST_SUITE_P(
    ManyCore, ExactPayloads, ::testing::Values("many64"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

/** Two chip kinds, one replicated, one phase-offset chip, three
 *  epochs, two budgets. */
ScenarioSpec
clusterScenario()
{
    ChipSpec a;
    a.combo = combination("2way1");
    a.policy = "MaxBIPS";
    ChipSpec b;
    b.combo = {"mcf", "crafty"};
    b.policy = "WaterFill";
    b.phaseOffset = 0.25;
    ClusterSpec cl;
    cl.chips = {a, a, b};
    cl.epochs = 3;
    cl.epochUs = 1000.0;
    cl.levels = 8;
    ScenarioSpec s;
    s.cluster = std::move(cl);
    s.policy = "GreedyTurbo";
    s.budgets = {0.7, 0.9};
    return s;
}

TEST(ExactClusterPayload, MatchesFrozenDigest)
{
    ScenarioSpec spec = clusterScenario();
    ClusterManager mgr(test::profiles(0.05), test::dvfs(),
                       spec.simConfig(), spec.clusterSpec());
    std::vector<ClusterRunResult> runs;
    for (double b : spec.budgets) {
        auto run = mgr.run(b, 1);
        ASSERT_TRUE(run.ok()) << run.error().message;
        runs.push_back(std::move(run.value()));
    }
    std::string payload =
        serializeClusterResults(spec, spec.canonicalText(), runs);
    EXPECT_EQ(fnv1a(payload), frozenCluster)
        << "0x" << std::hex << fnv1a(payload) << "ull";
}

} // namespace
} // namespace gpm
