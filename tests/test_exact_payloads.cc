/** @file Frozen result payloads of the exact-search policies: the
 *  FNV-1a digest of serializeResults for every Table 2 combination
 *  under MaxBIPS, Oracle, MinPower, HistoryMaxBIPS and Static over a
 *  budget list, at the scale of the other end-to-end tests. The
 *  digests pin the exact search's answers, tie-break included, to
 *  the payload bytes recorded before the search was rewritten. */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

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

struct Frozen
{
    const char *combo;
    const char *policy;
    std::uint64_t digest;
};

const Frozen frozen[] = {
    {"2way1", "MaxBIPS", 0xbdef0dc06db544fbull},
    {"2way1", "Oracle", 0xaaf00499ed814c8full},
    {"2way1", "MinPower", 0xc7a8091643841b89ull},
    {"2way1", "HistoryMaxBIPS", 0x6d5ba9e5eea69a0bull},
    {"2way1", "Static", 0x99bbd45db4920439ull},
    {"2way2", "MaxBIPS", 0x6b203a491edcffd1ull},
    {"2way2", "Oracle", 0x3155fb61a3cab297ull},
    {"2way2", "MinPower", 0xcdde9b734ebcf9e1ull},
    {"2way2", "HistoryMaxBIPS", 0x650d0a9260057e07ull},
    {"2way2", "Static", 0x181a833658dfc346ull},
    {"2way3", "MaxBIPS", 0x360d1a36c4eb6aceull},
    {"2way3", "Oracle", 0xa6e673043d224672ull},
    {"2way3", "MinPower", 0xb5724000b0b59de3ull},
    {"2way3", "HistoryMaxBIPS", 0x2e542eaac8e20188ull},
    {"2way3", "Static", 0xfdaedff12508ba22ull},
    {"2way4", "MaxBIPS", 0xbc13900c582b70adull},
    {"2way4", "Oracle", 0xde49873fc2cb1944ull},
    {"2way4", "MinPower", 0xd38743d6d378381ull},
    {"2way4", "HistoryMaxBIPS", 0x7f4f5716564ad14aull},
    {"2way4", "Static", 0x9cfc1ede9a9f8a9dull},
    {"4way1", "MaxBIPS", 0x905fc3ca860fff0ull},
    {"4way1", "Oracle", 0xa243fc53d234413aull},
    {"4way1", "MinPower", 0x3a8205869c2eeda5ull},
    {"4way1", "HistoryMaxBIPS", 0xfbbc15d685c3aa85ull},
    {"4way1", "Static", 0xfe92639a039ffb73ull},
    {"4way2", "MaxBIPS", 0xd5eaf1db1f5b15d3ull},
    {"4way2", "Oracle", 0x57b2b7c3d8806a3dull},
    {"4way2", "MinPower", 0xac9283bedcb58406ull},
    {"4way2", "HistoryMaxBIPS", 0xf314b0773c252c4dull},
    {"4way2", "Static", 0xe7b6a003653447bbull},
    {"4way3", "MaxBIPS", 0x12eb80a5cf928184ull},
    {"4way3", "Oracle", 0x53f6f24170df3b6full},
    {"4way3", "MinPower", 0xc210bbc10cee1a92ull},
    {"4way3", "HistoryMaxBIPS", 0xe0e6bad00d88e58aull},
    {"4way3", "Static", 0xde0ce9cae9d26906ull},
    {"4way4", "MaxBIPS", 0xf63eba870d4c3ff8ull},
    {"4way4", "Oracle", 0x9d8d3c4e0dbac962ull},
    {"4way4", "MinPower", 0x4b83a64066a7426dull},
    {"4way4", "HistoryMaxBIPS", 0xfed2372a465f103ull},
    {"4way4", "Static", 0xe66f68ec166ed0c0ull},
    {"8way1", "MaxBIPS", 0x93dbd3603c415c46ull},
    {"8way1", "Oracle", 0x7dd7cd507698814full},
    {"8way1", "MinPower", 0x4806eeca1d31d53eull},
    {"8way1", "HistoryMaxBIPS", 0x7532c0f23e73ce65ull},
    {"8way1", "Static", 0xae3ae06c8e251bb8ull},
    {"8way2", "MaxBIPS", 0x1da43744134f41d6ull},
    {"8way2", "Oracle", 0xf4567b062c4a1a3full},
    {"8way2", "MinPower", 0x3eabeebc3eb8eaf8ull},
    {"8way2", "HistoryMaxBIPS", 0x60c38ca02c0d2727ull},
    {"8way2", "Static", 0xea4def7236910c9bull},
};

class ExactPayloads : public ::testing::TestWithParam<std::string>
{
  protected:
    static ProfileLibrary &
    lib()
    {
        static DvfsTable dvfs = DvfsTable::classic3();
        static ProfileLibrary l(dvfs, 0.05);
        return l;
    }

    static const DvfsTable &
    dvfs()
    {
        static DvfsTable d = DvfsTable::classic3();
        return d;
    }
};

TEST_P(ExactPayloads, MatchFrozenDigests)
{
    const std::string key = GetParam();
    ExperimentRunner runner(lib(), dvfs(),
                            ScenarioSpec{}.simConfig());
    int checked = 0;
    for (const Frozen &f : frozen) {
        if (key != f.combo)
            continue;
        ScenarioSpec spec;
        spec.combo = combination(key);
        spec.policy = f.policy;
        spec.budgets = {0.55, 0.65, 0.75, 0.85, 0.95};
        std::string payload =
            serializeResults(spec, runner.sweep(spec.sweepSpec(), 1));
        EXPECT_EQ(fnv1a(payload), f.digest)
            << "{\"" << key << "\", \"" << f.policy << "\", 0x"
            << std::hex << fnv1a(payload) << "ull},";
        checked++;
    }
    EXPECT_EQ(checked, 5);
}

INSTANTIATE_TEST_SUITE_P(
    Table2, ExactPayloads,
    ::testing::Values("2way1", "2way2", "2way3", "2way4", "4way1",
                      "4way2", "4way3", "4way4", "8way1", "8way2"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace gpm
