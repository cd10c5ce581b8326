/**
 * @file
 * The parallel profile pipeline: buildSuite() determinism vs a
 * serial baseline (mirroring test_sweep.cc's contract), the
 * content-addressed ProfileStore (round trip, atomic saves,
 * fingerprint addressing, corrupt/truncated-entry quarantine, fault
 * injection, concurrent savers of one entry, read errors feeding
 * the breaker), incremental invalidation, and a background
 * buildSuite() racing get() callers over cold and warm stores.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hh"
#include "trace/phase_profile.hh"
#include "trace/profile_store.hh"
#include "trace/profiler.hh"
#include "trace/workload.hh"
#include "util/fault.hh"

namespace gpm
{
namespace
{

/** Tiny scale so a full suite build stays in test time. */
constexpr double kScale = 0.002;

using test::identical;

class ProfileStoreTest : public ::testing::Test
{
  protected:
    void SetUp() override { fault::disarm(); }
    void TearDown() override { fault::disarm(); }

    /** A small profile built directly (one workload, full modes). */
    WorkloadProfile
    buildOne(const std::string &name)
    {
        Profiler profiler(dvfs);
        return profiler.profileWorkload(workload(name), kScale);
    }

    test::TempDir tmp;
    const std::string dir = tmp.path();
    DvfsTable dvfs = DvfsTable::classic3();
};

TEST_F(ProfileStoreTest, ParallelBuildMatchesSerialBaseline)
{
    // Serial reference: the exact profiles a pre-parallel library
    // would have produced one (workload, mode) at a time.
    ProfileLibrary serial(dvfs, kScale);
    serial.buildSuite(1);

    for (std::size_t threads : {1u, 2u, 8u}) {
        ProfileLibrary lib(dvfs, kScale);
        lib.buildSuite(threads);
        for (const auto &w : spec2000Suite())
            EXPECT_TRUE(
                identical(lib.get(w.name), serial.get(w.name)))
                << w.name << " diverged at concurrency " << threads;
    }
}

TEST_F(ProfileStoreTest, StoreRoundTrip)
{
    WorkloadProfile p = buildOne("mcf");
    ProfileStore store(dir);
    ASSERT_TRUE(store.save("mcf", 0x1234, p));

    WorkloadProfile q;
    ASSERT_TRUE(store.load("mcf", 0x1234, q));
    EXPECT_TRUE(identical(p, q));
    EXPECT_EQ(store.stats().hits, 1u);
}

TEST_F(ProfileStoreTest, SaveIsAtomic)
{
    // save() commits through a temp file and a rename, also when it
    // replaces an existing entry: the directory only ever holds
    // finished entries, never a stray temp file.
    WorkloadProfile p = buildOne("mcf");
    ProfileStore store(dir);
    ASSERT_TRUE(store.save("mcf", 1, p));
    ASSERT_TRUE(store.save("mcf", 1, p));
    ASSERT_TRUE(store.save("mcf", 2, p));

    std::vector<std::string> names;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names,
              (std::vector<std::string>{
                  ProfileStore::fileNameFor("mcf", 1),
                  ProfileStore::fileNameFor("mcf", 2)}));

    WorkloadProfile q;
    ASSERT_TRUE(store.load("mcf", 1, q));
    EXPECT_TRUE(identical(p, q));
}

TEST_F(ProfileStoreTest, ConcurrentSavesOfOneEntryAllCommit)
{
    // Two stores over one directory in one process, both saving the
    // same entry at once: every save has a temp file of its own, so
    // no rename loses its source.
    constexpr int kSaves = 200;
    WorkloadProfile p = buildOne("mcf");
    ProfileStore a(dir), b(dir);
    int failed[2] = {0, 0};
    auto saver = [&](ProfileStore &s, int &fails) {
        for (int i = 0; i < kSaves; i++)
            fails += !s.save("mcf", 1, p);
    };
    std::thread ta(saver, std::ref(a), std::ref(failed[0]));
    std::thread tb(saver, std::ref(b), std::ref(failed[1]));
    ta.join();
    tb.join();

    EXPECT_EQ(failed[0] + failed[1], 0);
    EXPECT_EQ(a.stats().writeFailures + b.stats().writeFailures, 0u);
    std::vector<std::string> names;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        names.push_back(e.path().filename().string());
    EXPECT_EQ(names, std::vector<std::string>{
                         ProfileStore::fileNameFor("mcf", 1)});
    WorkloadProfile q;
    ASSERT_TRUE(a.load("mcf", 1, q));
    EXPECT_TRUE(identical(p, q));
}

TEST_F(ProfileStoreTest, UnreadableEntryIsAFailureNotAnAbsence)
{
    // A directory where the entry should be: read() fails with
    // EISDIR. The breaker counts it as a failure and opens; nothing
    // is quarantined, since no bytes were read.
    BreakerOptions bo;
    bo.minSamples = 2;
    bo.window = 4;
    bo.cooldownMs = 300000.0; // no probe during the test
    ProfileStore store(dir, bo);
    std::string path = store.pathFor("mcf", 7);
    ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);
    WorkloadProfile q;
    for (int i = 0; i < 6; i++)
        EXPECT_FALSE(store.load("mcf", 7, q));
    ProfileStoreStats s = store.stats();
    EXPECT_EQ(s.misses, 6u);
    EXPECT_EQ(s.quarantined, 0u);
    EXPECT_EQ(s.breakerOpens, 1u);
    EXPECT_EQ(std::string(s.breakerState), "open");
    EXPECT_TRUE(std::filesystem::is_directory(path));
}

TEST_F(ProfileStoreTest, FingerprintAddressesEntries)
{
    WorkloadProfile p = buildOne("mcf");
    ProfileStore store(dir);
    ASSERT_TRUE(store.save("mcf", 0x1234, p));

    WorkloadProfile q;
    // A different fingerprint is a different entry: miss, and the
    // existing entry is left untouched (no quarantine).
    EXPECT_FALSE(store.load("mcf", 0x9999, q));
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().quarantined, 0u);
    EXPECT_TRUE(store.load("mcf", 0x1234, q));
}

TEST_F(ProfileStoreTest, TruncatedEntryQuarantined)
{
    WorkloadProfile p = buildOne("mcf");
    ProfileStore store(dir);
    ASSERT_TRUE(store.save("mcf", 7, p));
    std::string path = store.pathFor("mcf", 7);

    struct stat st;
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    ASSERT_EQ(::truncate(path.c_str(), st.st_size / 2), 0);

    WorkloadProfile q;
    EXPECT_FALSE(store.load("mcf", 7, q));
    EXPECT_EQ(store.stats().quarantined, 1u);
    // The entry was set aside, not deleted, for postmortems...
    struct stat aside;
    EXPECT_EQ(::stat((path + ".corrupt").c_str(), &aside), 0);
    // ...and the slot is clean: a rebuilt profile saves and loads.
    ASSERT_TRUE(store.save("mcf", 7, p));
    EXPECT_TRUE(store.load("mcf", 7, q));
    EXPECT_TRUE(identical(p, q));
}

TEST_F(ProfileStoreTest, FlippedByteQuarantined)
{
    WorkloadProfile p = buildOne("mcf");
    ProfileStore store(dir);
    ASSERT_TRUE(store.save("mcf", 7, p));
    std::string path = store.pathFor("mcf", 7);

    // Flip one payload byte; the CRC catches it.
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);

    WorkloadProfile q;
    EXPECT_FALSE(store.load("mcf", 7, q));
    EXPECT_EQ(store.stats().quarantined, 1u);
}

TEST_F(ProfileStoreTest, ReadCorruptFaultQuarantinesAndRebuilds)
{
    ProfileLibrary lib(dvfs, kScale);
    lib.attachStore(dir);
    const WorkloadProfile &built = lib.get("mcf");
    ASSERT_EQ(lib.stats().builds, 1u);

    // Every read sees an (injected) corrupt entry: a fresh library
    // quarantines it and rebuilds from scratch...
    ASSERT_FALSE(fault::arm("profile-read-corrupt:1,seed:1"));
    ProfileLibrary lib2(dvfs, kScale);
    lib2.attachStore(dir);
    const WorkloadProfile &rebuilt = lib2.get("mcf");
    EXPECT_GE(fault::fires(fault::Point::ProfileReadCorrupt), 1u);
    fault::disarm();

    ProfileLibraryStats st = lib2.stats();
    EXPECT_EQ(st.builds, 1u);
    EXPECT_EQ(st.diskHits, 0u);
    EXPECT_EQ(st.storeQuarantined, 1u);
    // ...bitwise-identical (the build is deterministic), and the
    // rebuild re-persisted it: a third library loads from disk.
    EXPECT_TRUE(identical(built, rebuilt));
    ProfileLibrary lib3(dvfs, kScale);
    lib3.attachStore(dir);
    lib3.get("mcf");
    EXPECT_EQ(lib3.stats().diskHits, 1u);
    EXPECT_EQ(lib3.stats().builds, 0u);
}

TEST_F(ProfileStoreTest, WriteFailFaultMeansRebuildNextStart)
{
    ASSERT_FALSE(fault::arm("profile-write-fail:1,seed:1"));
    ProfileLibrary lib(dvfs, kScale);
    lib.attachStore(dir);
    lib.get("mcf");
    EXPECT_GE(fault::fires(fault::Point::ProfileWriteFail), 1u);
    EXPECT_EQ(lib.stats().storeWriteFailures, 1u);
    fault::disarm();

    // Nothing persisted: the next cold start builds again, and with
    // the fault gone the entry lands on disk this time.
    ProfileLibrary lib2(dvfs, kScale);
    lib2.attachStore(dir);
    lib2.get("mcf");
    EXPECT_EQ(lib2.stats().builds, 1u);
    ProfileLibrary lib3(dvfs, kScale);
    lib3.attachStore(dir);
    lib3.get("mcf");
    EXPECT_EQ(lib3.stats().diskHits, 1u);
}

TEST_F(ProfileStoreTest, WarmStartBuildsNothing)
{
    {
        ProfileLibrary lib(dvfs, kScale);
        lib.attachStore(dir);
        lib.buildSuite(2);
        EXPECT_EQ(lib.stats().builds, spec2000Suite().size());
    }
    // Every write committed through temp + rename: the directory
    // holds one entry per workload and no stray temp file.
    std::size_t entries = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        EXPECT_EQ(e.path().extension().string(), ".gpmp")
            << e.path();
        entries++;
    }
    EXPECT_EQ(entries, spec2000Suite().size());

    ProfileLibrary warm(dvfs, kScale);
    warm.attachStore(dir);
    warm.buildSuite(2);
    ProfileLibraryStats st = warm.stats();
    EXPECT_EQ(st.builds, 0u);
    EXPECT_EQ(st.diskHits, spec2000Suite().size());
    EXPECT_EQ(st.ready, spec2000Suite().size());
}

TEST_F(ProfileStoreTest, InvalidatingOneEntryRebuildsOnlyIt)
{
    {
        ProfileLibrary lib(dvfs, kScale);
        lib.attachStore(dir);
        lib.buildSuite(2);
    }
    const WorkloadSpec &victim = spec2000Suite().front();
    ProfileLibrary lib(dvfs, kScale);
    lib.attachStore(dir);
    {
        ProfileStore probe(dir);
        ASSERT_EQ(::unlink(probe
                               .pathFor(victim.name,
                                        lib.workloadFingerprint(
                                            victim))
                               .c_str()),
                  0);
    }
    lib.buildSuite(2);
    ProfileLibraryStats st = lib.stats();
    EXPECT_EQ(st.builds, 1u);
    EXPECT_EQ(st.diskHits, spec2000Suite().size() - 1);
}

TEST_F(ProfileStoreTest, ScaleChangesWorkloadFingerprint)
{
    ProfileLibrary a(dvfs, 0.002), b(dvfs, 0.002), c(dvfs, 0.004);
    const WorkloadSpec &w = spec2000Suite().front();
    EXPECT_EQ(a.workloadFingerprint(w), b.workloadFingerprint(w));
    EXPECT_NE(a.workloadFingerprint(w), c.workloadFingerprint(w));
    // Distinct workloads address distinct entries.
    EXPECT_NE(a.workloadFingerprint(spec2000Suite()[0]),
              a.workloadFingerprint(spec2000Suite()[1]));
}

TEST_F(ProfileStoreTest, PrewarmRacingGetsSeeOneProfileEach)
{
    // gpmd runs buildSuite() on a background thread while its
    // workers call get(). Over a cold and then a warm store, every
    // workload must be built or loaded exactly once, every caller
    // must get the same stable profile, and that profile must match
    // a serial build bit for bit.
    ProfileLibrary serial(dvfs, kScale);
    serial.buildSuite(1);
    const auto &suite = spec2000Suite();
    const std::size_t n = suite.size();
    constexpr std::size_t kGetters = 4;

    auto race = [&](ProfileLibrary &lib) {
        std::vector<std::vector<const WorkloadProfile *>> seen(
            kGetters, std::vector<const WorkloadProfile *>(n));
        std::vector<std::thread> threads;
        threads.emplace_back([&] { lib.buildSuite(2); });
        for (std::size_t t = 0; t < kGetters; t++)
            threads.emplace_back([&, t] {
                // Odd getters walk backwards, and each starts a
                // quarter of the suite further on: four orders.
                for (std::size_t k = 0; k < n; k++) {
                    std::size_t i = t % 2 ? n - 1 - k : k;
                    i = (i + t * n / kGetters) % n;
                    seen[t][i] = &lib.get(suite[i].name);
                }
            });
        for (auto &th : threads)
            th.join();
        for (std::size_t i = 0; i < n; i++) {
            const WorkloadProfile *after = &lib.get(suite[i].name);
            for (std::size_t t = 0; t < kGetters; t++)
                EXPECT_EQ(seen[t][i], after)
                    << suite[i].name << " getter " << t;
            EXPECT_TRUE(identical(*after, serial.get(suite[i].name)))
                << suite[i].name;
        }
    };

    ProfileLibrary cold(dvfs, kScale);
    cold.attachStore(dir);
    race(cold);
    EXPECT_EQ(cold.stats().builds, n);
    EXPECT_EQ(cold.stats().diskHits, 0u);

    ProfileLibrary warm(dvfs, kScale);
    warm.attachStore(dir);
    race(warm);
    EXPECT_EQ(warm.stats().builds, 0u);
    EXPECT_EQ(warm.stats().diskHits, n);
}

} // namespace
} // namespace gpm
