/** @file RendezvousRing placement properties gpmctl's client-side
 *  sharding relies on: balance, minimal remap on join and leave,
 *  determinism across restarts and --host order, and the per-key
 *  failover ranking. */

#include <gtest/gtest.h>

#include <algorithm>

#include "service/ring.hh"

namespace gpm
{
namespace
{

/** Stand-in scenario hashes: splitmix64 over the index, the same
 *  full-avalanche shape canonicalHash() produces. */
std::uint64_t
testKey(std::uint64_t i)
{
    std::uint64_t x = i + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::vector<std::string>
backendNames(std::size_t n, std::uint16_t basePort = 7500)
{
    std::vector<std::string> names;
    for (std::size_t i = 0; i < n; i++)
        names.push_back("127.0.0.1:" +
                        std::to_string(basePort + i));
    return names;
}

TEST(RendezvousRing, BalancedAcrossBackends)
{
    const std::size_t nBackends = 4, nKeys = 10000;
    RendezvousRing ring(backendNames(nBackends));
    std::vector<std::size_t> load(nBackends, 0);
    for (std::uint64_t i = 0; i < nKeys; i++)
        load[ring.owner(testKey(i))]++;
    double mean =
        static_cast<double>(nKeys) / static_cast<double>(nBackends);
    std::size_t maxLoad =
        *std::max_element(load.begin(), load.end());
    EXPECT_LT(static_cast<double>(maxLoad) / mean, 1.15)
        << "max shard " << maxLoad << " vs mean " << mean;
    for (std::size_t l : load)
        EXPECT_GT(l, 0u);
}

TEST(RendezvousRing, JoinMovesOnlyItsShare)
{
    const std::size_t nKeys = 10000;
    RendezvousRing four(backendNames(4));
    RendezvousRing five(backendNames(5));
    std::size_t moved = 0;
    for (std::uint64_t i = 0; i < nKeys; i++) {
        std::uint64_t k = testKey(i);
        std::size_t before = four.owner(k);
        std::size_t after = five.owner(k);
        if (five.name(after) != four.name(before)) {
            moved++;
            // A key only ever moves TO the new backend.
            EXPECT_EQ(five.name(after), "127.0.0.1:7504");
        }
    }
    // Expected moved fraction is 1/5; "< 1/N" with N the smaller
    // fleet (plus sampling slack under the binomial sd ~0.4%).
    EXPECT_LT(static_cast<double>(moved) / nKeys, 1.0 / 4.0);
    EXPECT_GT(moved, 0u);
}

TEST(RendezvousRing, LeaveMovesOnlyTheDepartedShard)
{
    const std::size_t nKeys = 10000;
    std::vector<std::string> names = backendNames(4);
    RendezvousRing four(names);
    std::vector<std::string> three(names.begin(),
                                   names.begin() + 3);
    RendezvousRing rest(three);
    std::size_t moved = 0;
    for (std::uint64_t i = 0; i < nKeys; i++) {
        std::uint64_t k = testKey(i);
        std::size_t before = four.owner(k);
        if (four.name(before) == names[3]) {
            moved++;
        } else {
            // Survivors keep every key they already owned.
            EXPECT_EQ(rest.name(rest.owner(k)),
                      four.name(before));
        }
    }
    EXPECT_LT(static_cast<double>(moved) / nKeys, 1.0 / 3.0);
    EXPECT_GT(moved, 0u);
}

TEST(RendezvousRing, DeterministicAcrossRestartsAndOrder)
{
    std::vector<std::string> names = backendNames(5);
    RendezvousRing a(names);
    RendezvousRing restarted(names); // "new process", same config
    std::vector<std::string> shuffled = {names[3], names[0],
                                         names[4], names[2],
                                         names[1]};
    RendezvousRing reordered(shuffled);
    for (std::uint64_t i = 0; i < 1000; i++) {
        std::uint64_t k = testKey(i);
        EXPECT_EQ(a.name(a.owner(k)),
                  restarted.name(restarted.owner(k)));
        EXPECT_EQ(a.name(a.owner(k)),
                  reordered.name(reordered.owner(k)));
    }
}

TEST(RendezvousRing, MaskedOwnerWalksTheFailoverRanking)
{
    RendezvousRing ring(backendNames(4));
    std::vector<char> all(4, 1);
    for (std::uint64_t i = 0; i < 200; i++) {
        std::uint64_t k = testKey(i);
        std::vector<std::size_t> order = ring.rank(k);
        EXPECT_EQ(ring.owner(k), order[0]);
        EXPECT_EQ(ring.owner(k, all), order[0]);
        std::vector<char> mask = all;
        mask[order[0]] = 0;
        EXPECT_EQ(ring.owner(k, mask), order[1]);
        mask[order[1]] = 0;
        EXPECT_EQ(ring.owner(k, mask), order[2]);
        std::vector<char> none(4, 0);
        EXPECT_EQ(ring.owner(k, none), RendezvousRing::npos);
    }
}

} // namespace
} // namespace gpm
