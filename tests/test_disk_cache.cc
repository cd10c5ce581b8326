/** @file DiskCache — the persistent result-cache tier — against a
 *  real scratch directory: round trips, persistence across
 *  instances and processes sharing a directory, CRC verification
 *  with quarantine of corrupt entries, the LRU byte budget, the
 *  disk-read-corrupt / disk-write-fail chaos points, concurrent
 *  writers of one entry, and read errors feeding the breaker. */

#include <gtest/gtest.h>

#include <cstdio>
#include <dirent.h>
#include <functional>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "harness.hh"
#include "service/disk_cache.hh"
#include "util/fault.hh"

namespace gpm
{
namespace
{

class DiskCacheTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::disarm(); }

    std::string
    entryPath(std::uint64_t hash) const
    {
        return dir + "/" + DiskCache::fileNameFor(hash);
    }

    std::vector<std::string>
    dirNames() const
    {
        std::vector<std::string> names;
        if (DIR *d = ::opendir(dir.c_str())) {
            while (const dirent *e = ::readdir(d)) {
                std::string name = e->d_name;
                if (name != "." && name != "..")
                    names.push_back(name);
            }
            ::closedir(d);
        }
        return names;
    }

    bool
    fileExists(const std::string &path) const
    {
        struct stat st;
        return ::stat(path.c_str(), &st) == 0;
    }

    /** Overwrite one byte at @p offset from the file's end. */
    void
    corruptTail(const std::string &path, long offset_from_end)
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, -offset_from_end, SEEK_END), 0);
        int c = std::fgetc(f);
        ASSERT_EQ(std::fseek(f, -offset_from_end, SEEK_END), 0);
        std::fputc(c ^ 0xff, f);
        std::fclose(f);
    }

    test::TempDir tmp;
    const std::string dir = tmp.path();
};

TEST_F(DiskCacheTest, RoundTripAndStats)
{
    DiskCache cache(dir, 0);
    std::string payload = "{\"results\":[1,2,3]}";
    cache.put(0x1234, payload);
    ASSERT_TRUE(fileExists(entryPath(0x1234)));

    std::string out;
    EXPECT_TRUE(cache.get(0x1234, out));
    EXPECT_EQ(out, payload);
    EXPECT_FALSE(cache.get(0x9999, out));

    DiskCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_GT(s.bytes, payload.size());
}

TEST_F(DiskCacheTest, SurvivesRestart)
{
    std::string payload(3000, 'x');
    payload += "end";
    {
        DiskCache first(dir, 0);
        first.put(0xabcdef, payload);
    }
    DiskCache second(dir, 0);
    EXPECT_EQ(second.stats().entries, 1u);
    std::string out;
    EXPECT_TRUE(second.get(0xabcdef, out));
    EXPECT_EQ(out, payload);
}

TEST_F(DiskCacheTest, IndexMissProbesEntriesWrittenByOthers)
{
    // Two instances over one directory, both created while it was
    // empty — the fleet-sharing case. B's write is invisible to A's
    // index, but A's get() probes the filesystem and finds it.
    DiskCache a(dir, 0);
    DiskCache b(dir, 0);
    b.put(0x77, "shared-payload");
    std::string out;
    EXPECT_TRUE(a.get(0x77, out));
    EXPECT_EQ(out, "shared-payload");
}

TEST_F(DiskCacheTest, CorruptPayloadQuarantinedNeverServed)
{
    DiskCache cache(dir, 0);
    cache.put(0x42, "precious-bytes");
    corruptTail(entryPath(0x42), 3); // flip a payload byte

    std::string out;
    EXPECT_FALSE(cache.get(0x42, out));
    DiskCacheStats s = cache.stats();
    EXPECT_EQ(s.quarantined, 1u);
    EXPECT_EQ(s.hits, 0u);
    // Renamed aside for postmortem, not deleted, and no longer
    // served under its entry name.
    EXPECT_FALSE(fileExists(entryPath(0x42)));
    EXPECT_TRUE(fileExists(entryPath(0x42) + ".corrupt"));

    // The recompute path repopulates cleanly.
    cache.put(0x42, "precious-bytes");
    EXPECT_TRUE(cache.get(0x42, out));
    EXPECT_EQ(out, "precious-bytes");
}

TEST_F(DiskCacheTest, TruncatedEntryQuarantined)
{
    DiskCache cache(dir, 0);
    cache.put(0x43, "will-be-truncated");
    ASSERT_EQ(::truncate(entryPath(0x43).c_str(), 10), 0);
    std::string out;
    EXPECT_FALSE(cache.get(0x43, out));
    EXPECT_EQ(cache.stats().quarantined, 1u);
}

TEST_F(DiskCacheTest, EvictsLeastRecentlyUsedToByteBudget)
{
    std::string payload(512, 'p');
    std::uint64_t oneEntryBytes;
    {
        DiskCache probe(dir, 0);
        probe.put(0x1, payload);
        oneEntryBytes = probe.stats().bytes;
        ::unlink(entryPath(0x1).c_str());
    }

    // Budget for one entry (plus slack): the second put evicts the
    // stalest.
    DiskCache cache(dir, oneEntryBytes + 64);
    cache.put(0x1, payload);
    cache.put(0x2, payload);
    DiskCacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_LE(s.bytes, oneEntryBytes + 64);
    EXPECT_FALSE(fileExists(entryPath(0x1)));
    EXPECT_TRUE(fileExists(entryPath(0x2)));

    // Recency matters: touch 0x2 via get, insert 0x3 — 0x2 stays.
    std::string out;
    ASSERT_TRUE(cache.get(0x2, out));
    cache.put(0x3, payload);
    EXPECT_TRUE(fileExists(entryPath(0x2)) ||
                fileExists(entryPath(0x3)));
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST_F(DiskCacheTest, RestartWithSmallerBudgetKeepsEntriesUntilPut)
{
    std::string payload(512, 'q');
    {
        DiskCache first(dir, 0);
        first.put(0x10, payload);
        first.put(0x11, payload);
    }
    // A tiny budget must not purge the directory at startup — a
    // restarted daemon still serves yesterday's corpus.
    DiskCache second(dir, 64);
    EXPECT_EQ(second.stats().entries, 2u);
    std::string out;
    EXPECT_TRUE(second.get(0x10, out));
    // The budget bites on the next insertion.
    second.put(0x12, payload);
    EXPECT_GT(second.stats().evictions, 0u);
}

TEST_F(DiskCacheTest, InjectedReadCorruptionQuarantines)
{
    DiskCache cache(dir, 0);
    cache.put(0x50, "healthy-bytes");
    ASSERT_FALSE(fault::arm("disk-read-corrupt,seed:1"));
    std::string out;
    EXPECT_FALSE(cache.get(0x50, out));
    EXPECT_EQ(cache.stats().quarantined, 1u);
    EXPECT_GE(fault::fires(fault::Point::DiskReadCorrupt), 1u);
    fault::disarm();
    // Quarantine is real even for an injected verdict: the entry is
    // gone and recomputation repopulates.
    EXPECT_FALSE(cache.get(0x50, out));
    cache.put(0x50, "healthy-bytes");
    EXPECT_TRUE(cache.get(0x50, out));
}

TEST_F(DiskCacheTest, InjectedWriteFailureDropsTheEntry)
{
    DiskCache cache(dir, 0);
    ASSERT_FALSE(fault::arm("disk-write-fail,seed:1"));
    cache.put(0x60, "never-lands");
    fault::disarm();
    EXPECT_FALSE(fileExists(entryPath(0x60)));
    std::string out;
    EXPECT_FALSE(cache.get(0x60, out));
    DiskCacheStats s = cache.stats();
    EXPECT_EQ(s.writeFailures, 1u);
    EXPECT_EQ(s.entries, 0u);
}

TEST_F(DiskCacheTest, ConcurrentWritersOfOneEntryAllCommit)
{
    // Two caches over one directory in one process, each writing
    // the same entries at once: every write has a temp file of its
    // own, so no rename loses its source.
    constexpr std::uint64_t kEntries = 200;
    DiskCache a(dir, 0), b(dir, 0);
    auto writer = [&](DiskCache &c) {
        for (std::uint64_t h = 0; h < kEntries; h++)
            c.put(h, "payload-" + std::to_string(h));
    };
    std::thread ta(writer, std::ref(a)), tb(writer, std::ref(b));
    ta.join();
    tb.join();

    EXPECT_EQ(a.stats().writeFailures, 0u);
    EXPECT_EQ(b.stats().writeFailures, 0u);
    std::vector<std::string> names = dirNames();
    EXPECT_EQ(names.size(), kEntries);
    for (const std::string &name : names)
        EXPECT_EQ(name.find(".tmp."), std::string::npos) << name;
    DiskCache reader(dir, 0);
    std::string out;
    for (std::uint64_t h = 0; h < kEntries; h++) {
        ASSERT_TRUE(reader.get(h, out)) << h;
        EXPECT_EQ(out, "payload-" + std::to_string(h));
    }
}

TEST_F(DiskCacheTest, UnreadableEntryIsAFailureNotAnAbsence)
{
    // A directory where the entry should be: open() succeeds, read()
    // fails with EISDIR. That is a sick disk, not a missing entry,
    // so it feeds the breaker; with nothing read there is nothing
    // to quarantine.
    BreakerOptions bo;
    bo.minSamples = 2;
    bo.window = 4;
    bo.cooldownMs = 300000.0; // no probe during the test
    DiskCache cache(dir, 0, bo);
    ASSERT_EQ(::mkdir(entryPath(0x99).c_str(), 0755), 0);
    std::string out;
    for (int i = 0; i < 6; i++)
        EXPECT_FALSE(cache.get(0x99, out));
    DiskCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 6u);
    EXPECT_EQ(s.quarantined, 0u);
    EXPECT_EQ(s.breakerOpens, 1u);
    EXPECT_EQ(std::string(s.breakerState), "open");
    EXPECT_TRUE(fileExists(entryPath(0x99)));
    EXPECT_FALSE(fileExists(entryPath(0x99) + ".corrupt"));
}

TEST_F(DiskCacheTest, FileNameIsSixteenHex)
{
    EXPECT_EQ(DiskCache::fileNameFor(0xdeadbeef),
              "00000000deadbeef.gpmc");
    EXPECT_EQ(DiskCache::fileNameFor(0), "0000000000000000.gpmc");
}

} // namespace
} // namespace gpm
