/** @file Unit tests for profiles, cursors and the profile library. */

#include <cmath>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "harness.hh"
#include "helpers.hh"
#include "trace/phase_profile.hh"
#include "trace/workload.hh"
#include "util/rng.hh"

namespace gpm
{
namespace
{

using test::classicSyntheticProfile;
using test::syntheticProfile;

TEST(ModeProfile, Totals)
{
    auto p = classicSyntheticProfile(10, 10.0, 1e-4);
    const ModeProfile &mp = p.at(modes::Turbo);
    EXPECT_EQ(mp.totalInsts(), 100'000u);
    EXPECT_EQ(mp.totalTimePs(), 100'000'000u); // 10 x 10 us
    EXPECT_NEAR(mp.totalEnergyJ(), 1e-3, 1e-12);
    EXPECT_NEAR(mp.avgPowerW(), 1e-3 / 100e-6, 1e-6);
    EXPECT_NEAR(mp.bips(), 100'000 / (100e-6 * 1e9), 1e-9);
}

TEST(ModeProfile, SlowerModesTakeLonger)
{
    auto p = classicSyntheticProfile();
    EXPECT_GT(p.at(modes::Eff1).totalTimePs(),
              p.at(modes::Turbo).totalTimePs());
    EXPECT_GT(p.at(modes::Eff2).totalTimePs(),
              p.at(modes::Eff1).totalTimePs());
    EXPECT_LT(p.at(modes::Eff2).avgPowerW(),
              p.at(modes::Turbo).avgPowerW());
}

TEST(ProfileCursor, AdvanceConsumesTime)
{
    auto p = classicSyntheticProfile(10, 10.0, 1e-4);
    ProfileCursor cur(p);
    auto d = cur.advance(25.0, modes::Turbo); // 2.5 chunks
    EXPECT_NEAR(d.instructions, 25'000, 1);
    EXPECT_NEAR(d.usedUs, 25.0, 1e-9);
    EXPECT_FALSE(d.finished);
    EXPECT_NEAR(cur.progress(), 0.25, 1e-9);
}

TEST(ProfileCursor, FinishesAndReportsPartialUse)
{
    auto p = classicSyntheticProfile(10, 10.0, 1e-4);
    ProfileCursor cur(p);
    auto d = cur.advance(1000.0, modes::Turbo);
    EXPECT_TRUE(d.finished);
    EXPECT_NEAR(d.usedUs, 100.0, 1e-6);
    EXPECT_NEAR(d.instructions, 100'000, 1);
    EXPECT_TRUE(cur.finished());
    // Advancing further yields nothing.
    auto d2 = cur.advance(50.0, modes::Turbo);
    EXPECT_NEAR(d2.instructions, 0.0, 1e-9);
    EXPECT_NEAR(d2.usedUs, 0.0, 1e-9);
}

TEST(ProfileCursor, PeekDoesNotMove)
{
    auto p = classicSyntheticProfile();
    ProfileCursor cur(p);
    auto d1 = cur.peek(30.0, modes::Turbo);
    auto d2 = cur.peek(30.0, modes::Turbo);
    EXPECT_NEAR(d1.instructions, d2.instructions, 1e-9);
    EXPECT_NEAR(cur.progress(), 0.0, 1e-12);
}

TEST(ProfileCursor, ModeSwitchPreservesInstructionPosition)
{
    auto p = classicSyntheticProfile(10, 10.0, 1e-4);
    ProfileCursor a(p), b(p);
    // a: all Turbo. b: half Turbo then Eff2 — instructions conserve.
    double insts_a = 0.0;
    insts_a += a.advance(50.0, modes::Turbo).instructions;
    double insts_b = 0.0;
    insts_b += b.advance(50.0, modes::Turbo).instructions;
    EXPECT_NEAR(a.instructionsDone(), b.instructionsDone(), 1e-6);
    // Continue b at Eff2: it needs 1/0.85 more time per chunk.
    auto d = b.advance(10.0 / 0.85, modes::Eff2);
    EXPECT_NEAR(d.instructions, 10'000, 1);
}

TEST(ProfileCursor, SlowerModeYieldsFewerInstructionsPerTime)
{
    auto p = classicSyntheticProfile();
    ProfileCursor cur(p);
    auto turbo = cur.peek(40.0, modes::Turbo);
    auto eff2 = cur.peek(40.0, modes::Eff2);
    EXPECT_NEAR(eff2.instructions / turbo.instructions, 0.85, 1e-6);
}

TEST(ProfileCursor, DilationSlowsProgress)
{
    auto p = classicSyntheticProfile();
    ProfileCursor cur(p);
    auto plain = cur.peek(40.0, modes::Turbo, 1.0);
    auto dilated = cur.peek(40.0, modes::Turbo, 1.25);
    EXPECT_NEAR(dilated.instructions / plain.instructions,
                1.0 / 1.25, 1e-6);
}

TEST(ProfileCursor, RewindRestarts)
{
    auto p = classicSyntheticProfile();
    ProfileCursor cur(p);
    cur.advance(1e6, modes::Turbo);
    EXPECT_TRUE(cur.finished());
    cur.rewind();
    EXPECT_FALSE(cur.finished());
    EXPECT_NEAR(cur.progress(), 0.0, 1e-12);
}

TEST(ProfileCursor, EnergyProportionalToProgress)
{
    auto p = classicSyntheticProfile(10, 10.0, 1e-4);
    ProfileCursor cur(p);
    auto d = cur.advance(50.0, modes::Turbo);
    EXPECT_NEAR(d.energyJ, 5e-4, 1e-10);
}

TEST(ProfileCursor, L2TrafficAccumulates)
{
    auto p = syntheticProfile(10, 10'000, 10.0, 1e-4,
                              {1.0, 1.0 / 0.85},
                              {1.0, 0.614}, 500);
    ProfileCursor cur(p);
    auto d = cur.advance(35.0, static_cast<PowerMode>(0));
    EXPECT_NEAR(d.l2Misses, 3.5 * 500, 1);
    EXPECT_NEAR(d.l2Accesses, 3.5 * 1000, 2);
}

/**
 * Drive a ProfileCursor and test::ReferenceCursor through one seeded
 * mix of advance() and peek() calls at any mode, with dilation
 * exactly 1 or drawn from [1, 1.6), from phase shift @p shift (0 =
 * unshifted) until both finish, then two calls more, and require
 * every Delta field and the cursors' finished(), instructionsDone()
 * and progress() to compare == after every call.
 */
void
expectStepsMatchReference(const WorkloadProfile &p, double shift,
                          std::uint64_t seed)
{
    SCOPED_TRACE(p.name + " shift " + std::to_string(shift));
    ProfileCursor cur(p);
    test::ReferenceCursor ref(p);
    if (shift > 0.0) {
        cur.seekFraction(shift);
        ref.seekFraction(shift);
    }
    Rng rng(seed);
    const auto n_modes = static_cast<std::uint32_t>(p.modes.size());
    int after_finish = 2;
    for (int step = 0; after_finish > 0; step++) {
        ASSERT_LT(step, 100'000) << "the replay never finished";
        // Log-uniform in [1, 2000] us: mostly steps that end
        // mid-chunk, some that cross the wrap or the whole stream.
        const MicroSec dt = std::exp(rng.uniform(0.0, std::log(2000.0)));
        const auto m = static_cast<PowerMode>(rng.below(n_modes));
        const double dilation =
            rng.below(2) ? 1.0 : rng.uniform(1.0, 1.6);
        const bool peek = rng.below(4) == 0;
        const ProfileCursor::Delta a =
            peek ? cur.peek(dt, m, dilation)
                 : cur.advance(dt, m, dilation);
        const ProfileCursor::Delta b =
            peek ? ref.peek(dt, m, dilation)
                 : ref.advance(dt, m, dilation);
        SCOPED_TRACE("step " + std::to_string(step));
        ASSERT_EQ(a.instructions, b.instructions);
        ASSERT_EQ(a.energyJ, b.energyJ);
        ASSERT_EQ(a.l2Accesses, b.l2Accesses);
        ASSERT_EQ(a.l2Misses, b.l2Misses);
        ASSERT_EQ(a.usedUs, b.usedUs);
        ASSERT_EQ(a.finished, b.finished);
        ASSERT_EQ(cur.finished(), ref.finished());
        ASSERT_EQ(cur.instructionsDone(), ref.instructionsDone());
        ASSERT_EQ(cur.progress(), ref.progress());
        if (cur.finished())
            after_finish--;
    }
}

TEST(ProfileCursor, StepsMatchReferenceBitForBit)
{
    // No suite profile has a last chunk shorter than the others at
    // this scale; this one does, and irregular chunk times.
    WorkloadProfile short_last = syntheticProfile(
        40, 10'000, 10.0, 1e-4, {1.0, 1.0 / 0.95, 1.0 / 0.85},
        {1.0, 0.857375, 0.614125}, 300);
    short_last.name = "short-last-chunk";
    Rng jitter(7);
    for (ModeProfile &mp : short_last.modes) {
        mp.lastChunkInsts = 3'700;
        for (ChunkRecord &c : mp.chunks)
            c.timePs = static_cast<std::uint64_t>(
                static_cast<double>(c.timePs) *
                jitter.uniform(0.3, 3.0));
        mp.chunks.back().timePs = mp.chunks.back().timePs * 37 / 100;
    }

    std::vector<const WorkloadProfile *> profs = {&short_last};
    for (const WorkloadSpec &w : spec2000Suite())
        profs.push_back(&test::profiles(0.05).get(w.name));
    std::uint64_t seed = 1;
    for (const WorkloadProfile *p : profs)
        for (double shift : {0.0, 0.1, 0.5, 0.999})
            for (int sequence = 0; sequence < 10; sequence++)
                expectStepsMatchReference(*p, shift, seed++);
}

TEST(WorkloadProfile, AtChecksBounds)
{
    auto p = classicSyntheticProfile();
    EXPECT_EQ(&p.at(modes::Turbo), &p.modes[0]);
}

TEST(ProfileLibrary, SaveLoadRoundTrip)
{
    // A library writes each profile it builds through to its store;
    // a second library over the same directory loads it instead of
    // building it again.
    test::TempDir tmp;
    ASSERT_FALSE(tmp.path().empty());
    auto dvfs = DvfsTable::classic3();
    ProfileLibrary lib(dvfs, 0.002);
    lib.attachStore(tmp.path());
    const WorkloadProfile &p = lib.get("mcf");
    EXPECT_EQ(lib.stats().builds, 1u);

    ProfileLibrary lib2(dvfs, 0.002);
    lib2.attachStore(tmp.path());
    const WorkloadProfile &q = lib2.get("mcf");
    EXPECT_EQ(lib2.stats().diskHits, 1u);
    EXPECT_EQ(lib2.stats().builds, 0u);
    ASSERT_EQ(q.modes.size(), p.modes.size());
    EXPECT_EQ(q.at(modes::Turbo).totalInsts(),
              p.at(modes::Turbo).totalInsts());
    EXPECT_EQ(q.at(modes::Turbo).chunks.size(),
              p.at(modes::Turbo).chunks.size());
    EXPECT_NEAR(q.at(modes::Eff2).totalEnergyJ(),
                p.at(modes::Eff2).totalEnergyJ(), 1e-12);
}

TEST(ProfileLibrary, LoadRejectsWrongScale)
{
    // The length scale is part of every entry's key: a library at
    // another scale over the same store never loads these profiles;
    // it builds its own beside them.
    test::TempDir tmp;
    ASSERT_FALSE(tmp.path().empty());
    auto dvfs = DvfsTable::classic3();
    ProfileLibrary lib(dvfs, 0.002);
    lib.attachStore(tmp.path());
    const WorkloadProfile &p = lib.get("mcf");

    ProfileLibrary other(dvfs, 0.004);
    other.attachStore(tmp.path());
    const WorkloadProfile &q = other.get("mcf");
    ProfileLibraryStats st = other.stats();
    EXPECT_EQ(st.diskHits, 0u);
    EXPECT_EQ(st.builds, 1u);
    EXPECT_EQ(st.storeQuarantined, 0u);
    EXPECT_GT(q.at(modes::Turbo).totalInsts(),
              p.at(modes::Turbo).totalInsts());

    // The first scale's entry is untouched and still loads.
    ProfileLibrary again(dvfs, 0.002);
    again.attachStore(tmp.path());
    again.get("mcf");
    EXPECT_EQ(again.stats().diskHits, 1u);
    EXPECT_EQ(again.stats().builds, 0u);
}

TEST(ProfileLibrary, LoadMissingFileFails)
{
    // A store whose directory cannot exist holds nothing to load and
    // takes no write: get() still builds and serves the profile, and
    // counts the failed write.
    test::TempDir tmp;
    ASSERT_FALSE(tmp.path().empty());
    auto dvfs = DvfsTable::classic3();
    ProfileLibrary lib(dvfs, 0.002);
    lib.attachStore(tmp.path() + "/missing/store");
    const WorkloadProfile &p = lib.get("mcf");
    EXPECT_GT(p.at(modes::Turbo).totalInsts(), 0u);
    ProfileLibraryStats st = lib.stats();
    EXPECT_EQ(st.diskHits, 0u);
    EXPECT_EQ(st.builds, 1u);
    EXPECT_EQ(st.storeWriteFailures, 1u);
    EXPECT_FALSE(std::filesystem::exists(tmp.path() + "/missing"));
}

TEST(ProfileLibrary, GetIsStableAcrossGrowth)
{
    auto dvfs = DvfsTable::classic3();
    ProfileLibrary lib(dvfs, 0.002);
    const WorkloadProfile *first = &lib.get("mcf");
    lib.get("art");
    lib.get("ammp");
    EXPECT_EQ(first, &lib.get("mcf"));
}

TEST(ProfileLibrary, FingerprintStable)
{
    // A workload's store key is the same in every library built the
    // same way, and moves with each profile input: the scale, the
    // DVFS table, the footprint and the phase mix.
    auto dvfs = DvfsTable::classic3();
    auto subLinear = DvfsTable::subLinearVoltage();
    ProfileLibrary a(dvfs, 0.5), b(dvfs, 0.5), c(dvfs, 0.25),
        d(subLinear, 0.5);
    for (const auto &w : spec2000Suite()) {
        EXPECT_EQ(a.workloadFingerprint(w), b.workloadFingerprint(w))
            << w.name;
        EXPECT_NE(a.workloadFingerprint(w), c.workloadFingerprint(w))
            << w.name;
        EXPECT_NE(a.workloadFingerprint(w), d.workloadFingerprint(w))
            << w.name;
    }

    const WorkloadSpec &mcf = workload("mcf");
    WorkloadSpec bigger = mcf;
    bigger.coldBytes *= 2;
    EXPECT_NE(a.workloadFingerprint(bigger),
              a.workloadFingerprint(mcf));
    WorkloadSpec storeHeavy = mcf;
    storeHeavy.phases.front().fracStore += 0.01;
    EXPECT_NE(a.workloadFingerprint(storeHeavy),
              a.workloadFingerprint(mcf));
}

} // namespace
} // namespace gpm
