#include "phase_profile.hh"

#include <algorithm>
#include <chrono>

#include "trace/profile_store.hh"
#include "trace/profiler.hh"
#include "trace/workload.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace gpm
{

std::uint64_t
ModeProfile::totalInsts() const
{
    if (chunks.empty())
        return 0;
    return (chunks.size() - 1) * chunkInsts + lastChunkInsts;
}

std::uint64_t
ModeProfile::totalTimePs() const
{
    std::uint64_t t = 0;
    for (const auto &c : chunks)
        t += c.timePs;
    return t;
}

double
ModeProfile::totalEnergyJ() const
{
    double e = 0.0;
    for (const auto &c : chunks)
        e += c.energyJ;
    return e;
}

Watts
ModeProfile::avgPowerW() const
{
    std::uint64_t t = totalTimePs();
    if (t == 0)
        return 0.0;
    return totalEnergyJ() / (static_cast<double>(t) * 1e-12);
}

Watts
ModeProfile::peakPowerW(MicroSec window_us) const
{
    GPM_ASSERT(window_us > 0.0);
    const double window_ps = window_us * 1e6;
    // Two-pointer sliding window over the chunk sequence.
    Watts peak = 0.0;
    double win_t = 0.0, win_e = 0.0;
    std::size_t head = 0;
    for (std::size_t tail = 0; tail < chunks.size(); tail++) {
        win_t += static_cast<double>(chunks[tail].timePs);
        win_e += chunks[tail].energyJ;
        while (win_t > window_ps && head < tail) {
            win_t -= static_cast<double>(chunks[head].timePs);
            win_e -= chunks[head].energyJ;
            head++;
        }
        if (win_t > 0.0)
            peak = std::max(peak, win_e / (win_t * 1e-12));
    }
    return peak;
}

double
ModeProfile::bips() const
{
    std::uint64_t t = totalTimePs();
    if (t == 0)
        return 0.0;
    double secs = static_cast<double>(t) * 1e-12;
    return static_cast<double>(totalInsts()) / secs / 1e9;
}

const ModeProfile &
WorkloadProfile::at(PowerMode m) const
{
    GPM_ASSERT(m < modes.size());
    return modes[m];
}

ProfileCursor::ProfileCursor(const WorkloadProfile &profile)
    : prof(&profile)
{
    GPM_ASSERT(!prof->modes.empty());
}

bool
ProfileCursor::posFinished(const Pos &pos,
                           std::size_t n_chunks) const
{
    if (!shifted)
        return pos.chunk >= n_chunks;
    // A shifted replay finishes when the wrapped pass climbs back
    // to the start position.
    return pos.wrapped &&
        (pos.chunk > start.chunk ||
         (pos.chunk == start.chunk && pos.frac >= start.frac));
}

void
ProfileCursor::seekFraction(double f)
{
    GPM_ASSERT(f >= 0.0 && f < 1.0);
    const ModeProfile &mp = prof->modes[0];
    start = Pos{};
    shifted = false;
    if (f > 0.0 && !mp.chunks.empty()) {
        double target =
            f * static_cast<double>(mp.totalInsts());
        auto chunk = static_cast<std::size_t>(
            target / static_cast<double>(mp.chunkInsts));
        chunk = std::min(chunk, mp.chunks.size() - 1);
        std::uint64_t this_chunk = chunk + 1 == mp.chunks.size()
            ? mp.lastChunkInsts
            : mp.chunkInsts;
        double frac = (target -
                       static_cast<double>(chunk) *
                           static_cast<double>(mp.chunkInsts)) /
            static_cast<double>(this_chunk);
        start.chunk = chunk;
        start.frac = std::clamp(frac, 0.0, 1.0);
        shifted = true;
    }
    cur = start;
    instsAcc = 0.0;
}

bool
ProfileCursor::finished() const
{
    return posFinished(cur, prof->modes[0].chunks.size());
}

double
ProfileCursor::instructionsDone() const
{
    const ModeProfile &mp = prof->modes[0];
    if (shifted)
        return std::min(instsAcc,
                        static_cast<double>(mp.totalInsts()));
    if (finished())
        return static_cast<double>(mp.totalInsts());
    double insts =
        static_cast<double>(cur.chunk) *
        static_cast<double>(mp.chunkInsts);
    std::uint64_t this_chunk = cur.chunk + 1 == mp.chunks.size()
        ? mp.lastChunkInsts
        : mp.chunkInsts;
    return insts + cur.frac * static_cast<double>(this_chunk);
}

double
ProfileCursor::progress() const
{
    double total = static_cast<double>(prof->modes[0].totalInsts());
    if (total <= 0.0)
        return 1.0;
    return instructionsDone() / total;
}

void
ProfileCursor::rewind()
{
    cur = start;
    instsAcc = 0.0;
}

namespace
{

/** Add fraction @p frac of chunk @p c, which holds @p insts
 *  instructions, to @p d. */
inline void
addShare(ProfileCursor::Delta &d, double frac, const ChunkRecord &c,
         double insts)
{
    d.instructions += frac * insts;
    d.energyJ += frac * c.energyJ;
    d.l2Accesses += frac * static_cast<double>(c.l2Accesses);
    d.l2Misses += frac * static_cast<double>(c.l2Misses);
}

} // namespace

ProfileCursor::Delta
ProfileCursor::advanceFrom(Pos &pos, MicroSec dt_us, PowerMode m,
                           double dilation) const
{
    GPM_ASSERT(m < prof->modes.size());
    GPM_ASSERT(dilation >= 1.0);
    const ModeProfile &mp = prof->modes[m];
    const std::size_t n = mp.chunks.size();
    const double chunk_insts = static_cast<double>(mp.chunkInsts);
    const double last_insts = static_cast<double>(mp.lastChunkInsts);
    // x * 1.0 == x: an undilated step skips the multiply.
    const bool dilated = dilation != 1.0;
    Delta d;
    double remaining_ps = dt_us * 1e6; // us -> ps

    // Whole chunks up to the pass boundary, fixed here: the end of
    // the stream or, once a shifted replay has wrapped, its start
    // chunk.
    std::size_t stop = shifted && pos.wrapped ? start.chunk : n;
    for (;;) {
        while (pos.chunk < stop && remaining_ps > 0.0) {
            const ChunkRecord &c = mp.chunks[pos.chunk];
            const double insts =
                pos.chunk + 1 == n ? last_insts : chunk_insts;
            double chunk_ps = static_cast<double>(c.timePs);
            if (dilated)
                chunk_ps *= dilation;
            double rem_frac = 1.0 - pos.frac;
            double rem_ps = chunk_ps * rem_frac;
            if (rem_ps <= remaining_ps) {
                addShare(d, rem_frac, c, insts);
                remaining_ps -= rem_ps;
                pos.chunk++;
                pos.frac = 0.0;
            } else {
                double f = remaining_ps / chunk_ps;
                addShare(d, f, c, insts);
                pos.frac += f;
                remaining_ps = 0.0;
            }
        }
        // The wrap to chunk 0 is eager: it happens when the last
        // chunk ends, even with no time left.
        if (pos.chunk < stop || !shifted || pos.wrapped)
            break;
        pos.chunk = 0;
        pos.wrapped = true;
        stop = start.chunk;
    }

    // A wrapped replay ends in its start chunk, at the start
    // fraction.
    if (shifted && pos.wrapped && pos.chunk == start.chunk &&
        pos.frac < start.frac && remaining_ps > 0.0) {
        const ChunkRecord &c = mp.chunks[pos.chunk];
        const double insts =
            pos.chunk + 1 == n ? last_insts : chunk_insts;
        double chunk_ps = static_cast<double>(c.timePs);
        if (dilated)
            chunk_ps *= dilation;
        double rem_frac = start.frac - pos.frac;
        double rem_ps = chunk_ps * rem_frac;
        if (rem_ps <= remaining_ps) {
            addShare(d, rem_frac, c, insts);
            remaining_ps -= rem_ps;
            if (start.frac < 1.0) {
                pos.frac = start.frac; // back at start: finished
            } else {
                pos.chunk++;
                pos.frac = 0.0;
            }
        } else {
            double f = remaining_ps / chunk_ps;
            addShare(d, f, c, insts);
            pos.frac += f;
            remaining_ps = 0.0;
        }
    }

    d.usedUs = dt_us - remaining_ps * 1e-6;
    d.finished = posFinished(pos, n);
    return d;
}

ProfileCursor::Delta
ProfileCursor::advance(MicroSec dt_us, PowerMode m, double dilation)
{
    Delta d = advanceFrom(cur, dt_us, m, dilation);
    instsAcc += d.instructions;
    return d;
}

ProfileCursor::Delta
ProfileCursor::peek(MicroSec dt_us, PowerMode m, double dilation) const
{
    Pos tmp = cur;
    return advanceFrom(tmp, dt_us, m, dilation);
}

// ---------------------------------------------------------------
// ProfileLibrary
// ---------------------------------------------------------------

namespace
{
/** Bumped when profile *semantics* change without a WorkloadSpec /
 *  DvfsTable / CoreConfig knob changing (e.g. a core-model fix);
 *  mixed into workloadFingerprint() so stale store entries
 *  re-address instead of serving old numbers. */
constexpr std::uint64_t storeSemanticVersion = 1;

std::uint64_t
elapsedMs(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

/** FNV-1a accumulator shared by the fingerprint functions. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ULL;

    void mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    /** Doubles are mixed at fixed precision (micro-units). */
    void mixD(double v) { mix(static_cast<std::uint64_t>(v * 1e6)); }
    void mixS(const std::string &s)
    {
        mix(s.size());
        for (char c : s)
            mix(static_cast<unsigned char>(c));
    }
};

} // namespace

ProfileLibrary::ProfileLibrary(const DvfsTable &dvfs_,
                               double length_scale)
    : dvfs(dvfs_), lengthScale(length_scale)
{
}

ProfileLibrary::~ProfileLibrary() = default;

std::uint64_t
ProfileLibrary::workloadFingerprint(const WorkloadSpec &w) const
{
    Fnv f;
    f.mix(storeSemanticVersion);
    f.mixD(lengthScale);
    f.mix(dvfs.numModes());
    for (std::size_t m = 0; m < dvfs.numModes(); m++) {
        f.mix(static_cast<std::uint64_t>(
            dvfs.frequency(static_cast<PowerMode>(m))));
        f.mixD(dvfs.voltage(static_cast<PowerMode>(m)));
    }

    // Every WorkloadSpec field: any change re-addresses the entry.
    f.mixS(w.name);
    f.mix(w.isFp ? 1 : 0);
    f.mixS(w.memClass);
    f.mix(w.totalInsts);
    f.mix(w.seed);
    f.mix(w.codeBytes);
    f.mix(w.hotBytes);
    f.mix(w.warmBytes);
    f.mix(w.coldBytes);
    f.mix(w.streamBytes);
    f.mix(w.phases.size());
    for (const auto &ph : w.phases) {
        f.mix(ph.lengthInsts);
        f.mixD(ph.fracLoad);
        f.mixD(ph.fracStore);
        f.mixD(ph.fracBranch);
        f.mixD(ph.fracFp);
        f.mixD(ph.fracFpMul);
        f.mixD(ph.fracFpDiv);
        f.mixD(ph.fracIntMul);
        f.mixD(ph.depP);
        f.mixD(ph.dep2Prob);
        f.mixD(ph.strideFrac);
        f.mixD(ph.hotFrac);
        f.mixD(ph.warmFrac);
        f.mixD(ph.coldFrac);
        f.mixD(ph.chainFrac);
        f.mixD(ph.branchBias);
    }

    // Every CoreConfig knob the detailed core model reads.
    f.mix(cfg.dispatchWidth);
    f.mix(cfg.fetchWidth);
    f.mix(cfg.windowSize);
    f.mix(cfg.rsMem);
    f.mix(cfg.rsFix);
    f.mix(cfg.rsFp);
    f.mix(cfg.physGpr);
    f.mix(cfg.physFpr);
    f.mix(cfg.archGpr);
    f.mix(cfg.archFpr);
    f.mix(cfg.numLsu);
    f.mix(cfg.numFxu);
    f.mix(cfg.numFpu);
    f.mix(cfg.numBru);
    f.mix(cfg.mshrs);
    f.mix(cfg.frontendDelay);
    f.mix(cfg.redirectPenalty);
    f.mix(cfg.bpredEntries);
    for (const CacheConfig *c : {&cfg.l1d, &cfg.l1i, &cfg.l2}) {
        f.mix(c->sizeBytes);
        f.mix(c->ways);
        f.mix(c->blockBytes);
    }
    f.mix(cfg.l1LatCycles);
    f.mixD(cfg.l2LatNs);
    f.mixD(cfg.memLatNs);
    f.mix(cfg.latIntAlu);
    f.mix(cfg.latIntMul);
    f.mix(cfg.latFpAlu);
    f.mix(cfg.latFpMul);
    f.mix(cfg.latFpDiv);
    f.mix(cfg.latBranch);
    f.mix(cfg.latAgen);
    return f.h;
}

ProfileLibrary::Slot &
ProfileLibrary::slotForLocked(const std::string &name)
{
    auto &up = slots[name];
    if (!up)
        up = std::make_unique<Slot>();
    return *up;
}

void
ProfileLibrary::publishLocked(Slot &s, WorkloadProfile &&p,
                              bool fromDisk, std::uint64_t build_ms)
{
    s.profile = std::move(p);
    s.state = Slot::State::Ready;
    counters.ready++;
    if (fromDisk) {
        counters.diskHits++;
    } else {
        counters.builds++;
        counters.buildMs += build_ms;
    }
    cv.notify_all();
}

void
ProfileLibrary::attachStore(const std::string &dir,
                            BreakerOptions breakerOpts)
{
    store = std::make_unique<ProfileStore>(dir, breakerOpts);
}

const WorkloadProfile &
ProfileLibrary::get(const std::string &name)
{
    std::unique_lock<std::mutex> lock(mtx);
    Slot &s = slotForLocked(name);
    // Wait out another thread's in-flight build; if that build
    // fails (slot reverts to Empty) the first waiter claims it.
    while (s.state == Slot::State::Building)
        cv.wait(lock);
    if (s.state == Slot::State::Ready)
        return s.profile;
    s.state = Slot::State::Building;
    lock.unlock();

    WorkloadProfile p;
    bool from_disk = false;
    std::uint64_t ms = 0;
    try {
        const WorkloadSpec &spec = workload(name);
        std::uint64_t fp = workloadFingerprint(spec);
        if (store && store->load(name, fp, p)) {
            from_disk = true;
        } else {
            auto t0 = std::chrono::steady_clock::now();
            Profiler profiler(dvfs, cfg);
            p = profiler.profileWorkload(spec, lengthScale);
            ms = elapsedMs(t0);
            if (store)
                store->save(name, fp, p);
        }
    } catch (...) {
        lock.lock();
        s.state = Slot::State::Empty;
        cv.notify_all();
        throw;
    }
    lock.lock();
    publishLocked(s, std::move(p), from_disk, ms);
    return s.profile;
}

void
ProfileLibrary::buildSuite(std::size_t concurrency)
{
    struct Pending
    {
        const WorkloadSpec *spec;
        Slot *slot;
        std::vector<ModeProfile> modes;
        std::vector<std::uint64_t> modeMs;
    };
    std::vector<Pending> pending;     // claimed by us, suite order
    std::vector<std::string> foreign; // being built by others

    {
        std::unique_lock<std::mutex> lock(mtx);
        for (const auto &w : spec2000Suite()) {
            Slot &s = slotForLocked(w.name);
            if (s.state == Slot::State::Ready)
                continue;
            if (s.state == Slot::State::Building) {
                foreign.push_back(w.name);
                continue;
            }
            s.state = Slot::State::Building;
            pending.push_back({&w, &s, {}, {}});
        }
    }

    const std::size_t n_modes = dvfs.numModes();
    // Everything between claiming the slots and publishing them runs
    // under one catch: any throw (store probe, resize, a build, the
    // consistency check) reverts the still-Building slots we claimed
    // to Empty and wakes waiters, so no get() deadlocks on a slot
    // with no builder behind it.
    try {
        // Probe the store serially first: a disk read is cheap next
        // to a detailed-core run, and publishing early unblocks
        // waiters.
        if (store) {
            for (auto it = pending.begin(); it != pending.end();) {
                WorkloadProfile p;
                if (store->load(it->spec->name,
                                workloadFingerprint(*it->spec), p)) {
                    std::unique_lock<std::mutex> lock(mtx);
                    publishLocked(*it->slot, std::move(p), true, 0);
                    it = pending.erase(it);
                } else {
                    ++it;
                }
            }
        }

        if (!pending.empty()) {
            inform("building %zu suite profiles (%zu detailed-core "
                   "runs, concurrency %zu)",
                   pending.size(), pending.size() * n_modes,
                   concurrency ? concurrency : defaultConcurrency());
            for (auto &pw : pending) {
                pw.modes.resize(n_modes);
                pw.modeMs.resize(n_modes);
            }
            Profiler profiler(dvfs, cfg);
            // One task per (workload x mode): the modes of one
            // workload are independent deterministic runs, and a
            // flat task list keeps all cores busy even when one
            // workload dominates the suite.
            gpm::parallelFor(
                concurrency, pending.size() * n_modes,
                [&](std::size_t t) {
                    Pending &pw = pending[t / n_modes];
                    auto mi = static_cast<PowerMode>(t % n_modes);
                    auto t0 = std::chrono::steady_clock::now();
                    pw.modes[mi] = profiler.profileMode(
                        *pw.spec, mi, lengthScale);
                    pw.modeMs[mi] = elapsedMs(t0);
                });
            // Assemble + publish in suite order: deterministic
            // slots, bitwise-identical to a serial
            // profileWorkload() loop.
            for (auto &pw : pending) {
                WorkloadProfile p;
                p.name = pw.spec->name;
                p.modes = std::move(pw.modes);
                Profiler::checkModeConsistency(p);
                std::uint64_t ms = 0;
                for (std::uint64_t m : pw.modeMs)
                    ms += m;
                if (store)
                    store->save(p.name,
                                workloadFingerprint(*pw.spec), p);
                std::unique_lock<std::mutex> lock(mtx);
                publishLocked(*pw.slot, std::move(p), false, ms);
            }
        }
    } catch (...) {
        std::unique_lock<std::mutex> lock(mtx);
        // Published slots are Ready and stay; only revert the ones
        // still waiting on us (we claimed them, so nobody else can
        // have moved them).
        for (auto &pw : pending)
            if (pw.slot->state == Slot::State::Building)
                pw.slot->state = Slot::State::Empty;
        cv.notify_all();
        throw;
    }

    // Profiles some other thread was mid-building when we scanned:
    // get() waits per entry (and rebuilds if that build failed).
    for (const std::string &name : foreign)
        get(name);
}

ProfileLibraryStats
ProfileLibrary::stats() const
{
    ProfileLibraryStats s;
    {
        std::unique_lock<std::mutex> lock(mtx);
        s = counters;
    }
    if (store) {
        ProfileStoreStats ss = store->stats();
        s.storeQuarantined = ss.quarantined;
        s.storeWriteFailures = ss.writeFailures;
        s.storeBreakerRefusals = ss.breakerRefusals;
        s.storeBreakerOpens = ss.breakerOpens;
        s.storeBreakerState = ss.breakerState;
    }
    return s;
}

} // namespace gpm
