/** @file The on-disk entry format, pinned byte for byte. Both
 *  stores frame an entry as an 8-byte magic (`GPMCACH1` for the
 *  result disk cache, `GPMPROF1` for the profile store), the
 *  payload length as a little-endian u64, the IEEE CRC32 of the
 *  payload as a little-endian u32, then the payload. A change to
 *  that layout orphans every existing `--cache-dir` and profile
 *  store, so these cases build the expected bytes here, from the
 *  layout, and also read fixed blobs back through each store. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "harness.hh"
#include "service/disk_cache.hh"
#include "trace/profile_store.hh"
#include "util/binio.hh"

namespace gpm
{
namespace
{

void
le(std::string &out, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; i++)
        out.push_back(static_cast<char>(v >> (8 * i)));
}

std::string
frameOf(const char *magic, const std::string &payload)
{
    std::string blob(magic, 8);
    le(blob, payload.size(), 8);
    le(blob, binio::crc32(payload.data(), payload.size()), 4);
    return blob + payload;
}

std::string
slurp(const std::string &path)
{
    std::string out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return out;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, got);
    std::fclose(f);
    return out;
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

/** The result payload both result-cache cases store. */
const std::string kResult = "{\"ok\":true}";

/** kResult framed under `GPMCACH1`, CRC32 0xa7d45f90. */
const std::string kResultBlob(
    "GPMCACH1"
    "\x0b\x00\x00\x00\x00\x00\x00\x00"
    "\x90\x5f\xd4\xa7"
    "{\"ok\":true}",
    8 + 8 + 4 + 11);

/** One-mode, one-chunk profile of "gcc". */
WorkloadProfile
smallProfile()
{
    ModeProfile mp;
    mp.chunkInsts = 100000;
    mp.lastChunkInsts = 4242;
    ChunkRecord c;
    c.timePs = 123456789;
    c.energyJ = 0.5;
    c.l2Accesses = 7;
    c.l2Misses = 3;
    mp.chunks.push_back(c);
    WorkloadProfile p;
    p.name = "gcc";
    p.modes.push_back(mp);
    return p;
}

/** smallProfile()'s payload, encoded by hand from the layout:
 *  name length (u32) and bytes, mode count (u32), then per mode
 *  chunkInsts (u64), lastChunkInsts (u64), chunk count (u32) and
 *  the raw ChunkRecords (u64 ps, f64 J, u32, u32). */
std::string
smallProfilePayload()
{
    std::string p;
    le(p, 3, 4);
    p += "gcc";
    le(p, 1, 4);
    le(p, 100000, 8);
    le(p, 4242, 8);
    le(p, 1, 4);
    le(p, 123456789, 8);
    le(p, 0x3fe0000000000000ull, 8); // 0.5
    le(p, 7, 4);
    le(p, 3, 4);
    return p;
}

/** smallProfile() framed under `GPMPROF1`, CRC32 0x6ddc151b. */
const std::string kProfileBlob(
    "GPMPROF1"
    "\x37\x00\x00\x00\x00\x00\x00\x00"
    "\x1b\x15\xdc\x6d"
    "\x03\x00\x00\x00gcc"
    "\x01\x00\x00\x00"
    "\xa0\x86\x01\x00\x00\x00\x00\x00"
    "\x92\x10\x00\x00\x00\x00\x00\x00"
    "\x01\x00\x00\x00"
    "\x15\xcd\x5b\x07\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\xe0\x3f"
    "\x07\x00\x00\x00"
    "\x03\x00\x00\x00",
    8 + 8 + 4 + 55);

class StoreFormatTest : public ::testing::Test
{
  protected:
    test::TempDir tmp;
    const std::string dir = tmp.path();
};

TEST_F(StoreFormatTest, Crc32CheckValue)
{
    EXPECT_EQ(binio::crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(binio::crc32("", 0), 0u);
}

TEST_F(StoreFormatTest, ExpectedFramesMatchTheFixedBlobs)
{
    EXPECT_EQ(frameOf("GPMCACH1", kResult), kResultBlob);
    EXPECT_EQ(smallProfilePayload().size(), 55u);
    EXPECT_EQ(frameOf("GPMPROF1", smallProfilePayload()),
              kProfileBlob);
}

TEST_F(StoreFormatTest, DiskCacheWritesTheDocumentedFrame)
{
    DiskCache cache(dir, 0);
    cache.put(0x2a, kResult);
    EXPECT_EQ(slurp(dir + "/" + DiskCache::fileNameFor(0x2a)),
              frameOf("GPMCACH1", kResult));
    EXPECT_EQ(cache.stats().bytes, kResultBlob.size());
}

TEST_F(StoreFormatTest, DiskCacheReadsAFixedBlob)
{
    spit(dir + "/" + DiskCache::fileNameFor(0x2a), kResultBlob);
    DiskCache cache(dir, 0);
    std::string out;
    ASSERT_TRUE(cache.get(0x2a, out));
    EXPECT_EQ(out, kResult);
    EXPECT_EQ(cache.stats().quarantined, 0u);
}

TEST_F(StoreFormatTest, ProfileStoreWritesTheDocumentedFrame)
{
    ProfileStore store(dir);
    ASSERT_TRUE(store.save("gcc", 0x77, smallProfile()));
    EXPECT_EQ(slurp(store.pathFor("gcc", 0x77)),
              frameOf("GPMPROF1", smallProfilePayload()));
}

TEST_F(StoreFormatTest, ProfileStoreReadsAFixedBlob)
{
    ProfileStore store(dir);
    spit(store.pathFor("gcc", 0x77), kProfileBlob);
    WorkloadProfile p;
    ASSERT_TRUE(store.load("gcc", 0x77, p));
    EXPECT_EQ(store.stats().quarantined, 0u);
    ASSERT_EQ(p.name, "gcc");
    ASSERT_EQ(p.modes.size(), 1u);
    const ModeProfile &mp = p.modes[0];
    EXPECT_EQ(mp.chunkInsts, 100000u);
    EXPECT_EQ(mp.lastChunkInsts, 4242u);
    ASSERT_EQ(mp.chunks.size(), 1u);
    EXPECT_EQ(mp.chunks[0].timePs, 123456789u);
    EXPECT_EQ(mp.chunks[0].energyJ, 0.5);
    EXPECT_EQ(mp.chunks[0].l2Accesses, 7u);
    EXPECT_EQ(mp.chunks[0].l2Misses, 3u);
}

} // namespace
} // namespace gpm
