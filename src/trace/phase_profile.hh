/**
 * @file
 * Per-(benchmark, mode) execution profiles — the data the paper's
 * "static, trace-based CMP analysis tool" runs on.
 *
 * A workload is profiled once per DVFS mode on the detailed core
 * model. The result is a sequence of fixed-instruction-count *chunks*
 * (10K micro-ops each); for each chunk and mode we record the wall
 * time it took, the core energy it consumed, and its L2 traffic.
 * Because chunk boundaries are instruction positions, a core can
 * switch modes at any point and continue from the same program
 * position in another mode's timing/energy column — exactly the
 * semantics of the paper's simultaneous multi-trace progression.
 *
 * ProfileCursor replays a profile in wall-clock time; ProfileLibrary
 * builds the suite's profiles, or loads them from a content-addressed
 * ProfileStore (see profile_store.hh).
 */

#ifndef GPM_TRACE_PHASE_PROFILE_HH
#define GPM_TRACE_PHASE_PROFILE_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "power/dvfs.hh"
#include "uarch/core_config.hh"
#include "util/breaker.hh"
#include "util/units.hh"

namespace gpm
{

/** Default instructions per profile chunk. */
constexpr std::uint64_t defaultChunkInsts = 10'000;

/** One profiled chunk at one mode. */
struct ChunkRecord
{
    /** Wall-clock time the chunk took at this mode [ps]. */
    std::uint64_t timePs = 0;
    /** Core energy consumed [J]. */
    double energyJ = 0.0;
    /** L2 accesses issued (L1 misses). */
    std::uint32_t l2Accesses = 0;
    /** L2 misses (off-chip accesses). */
    std::uint32_t l2Misses = 0;
};

/** A workload's timing/energy behaviour at one DVFS mode. */
struct ModeProfile
{
    /** Chunk records in program order. */
    std::vector<ChunkRecord> chunks;
    /** Instructions in every chunk except possibly the last. */
    std::uint64_t chunkInsts = defaultChunkInsts;
    /** Instructions in the final chunk. */
    std::uint64_t lastChunkInsts = defaultChunkInsts;

    /** Total instructions in the profile. */
    std::uint64_t totalInsts() const;

    /** End-to-end wall time [ps]. */
    std::uint64_t totalTimePs() const;

    /** End-to-end core energy [J]. */
    double totalEnergyJ() const;

    /** Whole-run average power [W]. */
    Watts avgPowerW() const;

    /**
     * Peak power over sliding windows of @p window_us [W]: the
     * highest average power any explore-interval-sized window of
     * the native run exhibits. A static (uncorrectable) mode
     * assignment must fit the budget at this level, not at the
     * whole-run average.
     */
    Watts peakPowerW(MicroSec window_us) const;

    /** Whole-run throughput in BIPS. */
    double bips() const;
};

/** A workload's profiles across all modes of a DvfsTable. */
struct WorkloadProfile
{
    /** Workload name. */
    std::string name;
    /** One ModeProfile per DVFS mode, indexed by PowerMode. */
    std::vector<ModeProfile> modes;

    /** Profile for mode @p m. */
    const ModeProfile &at(PowerMode m) const;
};

/**
 * Wall-clock replay of one WorkloadProfile: tracks a program
 * position (chunk + fractional instructions) and advances it through
 * time at a given mode, accumulating energy, instructions and L2
 * traffic. Mode switches keep the program position. A cursor is a
 * value: copying one copies its position, so a replay can resume
 * from a saved cursor, or from a saved Mark.
 */
class ProfileCursor
{
    struct Pos
    {
        std::size_t chunk = 0;
        double frac = 0.0; ///< fraction of the chunk completed
        /** Wrapped past the last chunk back to chunk 0 (only ever
         *  set on a seekFraction()-shifted cursor). */
        bool wrapped = false;
    };

  public:
    /** What an advance()/peek() accumulated. */
    struct Delta
    {
        double instructions = 0.0;
        double energyJ = 0.0;
        double l2Accesses = 0.0;
        double l2Misses = 0.0;
        /** Wall time actually consumed [us] (< requested when the
         *  workload finishes). */
        MicroSec usedUs = 0.0;
        bool finished = false;
    };

    /** Bind to a profile (must outlive the cursor). */
    explicit ProfileCursor(const WorkloadProfile &profile);

    /**
     * Advance the program position by @p dt_us of wall time at mode
     * @p m, with an optional multiplicative time-dilation factor
     * (used by the analytic contention model; dilation > 1 slows
     * progress without changing energy-per-instruction).
     */
    Delta advance(MicroSec dt_us, PowerMode m, double dilation = 1.0);

    /** Like advance() but without moving the cursor. */
    Delta peek(MicroSec dt_us, PowerMode m, double dilation = 1.0) const;

    /**
     * Phase-shift the replay: start at fraction @p f (in [0, 1)) of
     * the instruction stream instead of the beginning. The cursor
     * runs from f to the end, wraps around to the beginning, and
     * finishes back at f — every instruction of the workload still
     * executes exactly once, so instruction/energy conservation and
     * the FirstDone termination semantics are unchanged. This is how
     * the many-core scenarios derive N heterogeneous schedules from
     * 12 workload profiles without building new profiles. Resets
     * progress; rewind() returns to the shifted start.
     */
    void seekFraction(double f);

    /** True when the workload has completed. */
    bool finished() const;

    /** Instructions retired so far. */
    double instructionsDone() const;

    /** Fraction of the workload completed, in [0, 1]. */
    double progress() const;

    /** Reset to the beginning. */
    void rewind();

    /** The underlying profile. */
    const WorkloadProfile &profile() const { return *prof; }

    /**
     * The 32 bytes of a cursor that advance() moves: the program
     * position and the instructions retired. A cursor restored to a
     * Mark continues exactly as the cursor the Mark was taken from,
     * provided both started from the same cursor (CmpSim's held-mode
     * memo keeps one per step instead of a whole cursor).
     */
    class Mark
    {
        friend class ProfileCursor;
        Pos pos;
        double instsAcc = 0.0;
    };

    /** Where this cursor is. */
    Mark mark() const
    {
        Mark m;
        m.pos = cur;
        m.instsAcc = instsAcc;
        return m;
    }

    /** Move to @p m, a Mark of a cursor with this one's start. */
    void restore(const Mark &m)
    {
        cur = m.pos;
        instsAcc = m.instsAcc;
    }

  private:
    Delta advanceFrom(Pos &pos, MicroSec dt_us, PowerMode m,
                      double dilation) const;
    bool posFinished(const Pos &pos, std::size_t n_chunks) const;

    /** Never null; a pointer keeps the cursor copy-assignable. */
    const WorkloadProfile *prof;
    Pos cur;
    /** Replay origin; non-zero only after seekFraction(). */
    Pos start;
    /** True when start is not the beginning of the stream. */
    bool shifted = false;
    /** Instructions retired since the (possibly shifted) start;
     *  position arithmetic cannot recover this across a wrap. */
    double instsAcc = 0.0;
};

class ProfileStore;
struct WorkloadSpec;

/** Monotonic build/cache counters; see ProfileLibrary::stats(). */
struct ProfileLibraryStats
{
    /** Profiles built by running the detailed core model. */
    std::uint64_t builds = 0;
    /** Profiles served from the content-addressed disk store. */
    std::uint64_t diskHits = 0;
    /** Cumulative detailed-sim time across (workload x mode) runs
     *  [ms]. Sums per-mode run times, so under a parallel build it
     *  exceeds wall clock — it measures work done, not latency. */
    std::uint64_t buildMs = 0;
    /** Profiles currently ready to serve. */
    std::uint64_t ready = 0;
    /** Corrupt store entries quarantined aside (see ProfileStore). */
    std::uint64_t storeQuarantined = 0;
    /** Store writes that failed (entry rebuilt next cold start). */
    std::uint64_t storeWriteFailures = 0;
    /** Store loads/saves refused by its open circuit breaker. */
    std::uint64_t storeBreakerRefusals = 0;
    /** Store breaker transitions to open since attach. */
    std::uint64_t storeBreakerOpens = 0;
    /** "closed" | "open" | "half-open" ("closed" with no store). */
    const char *storeBreakerState = "closed";
};

/**
 * Builds, caches, and serves WorkloadProfiles for a set of workloads
 * under one DvfsTable. Building runs the detailed core model (see
 * Profiler); with a store attached (attachStore()), profiles persist
 * in a per-workload content-addressed directory so benchmarks and
 * daemons start quickly after the first run.
 *
 * Concurrency: every profile lives in its own slot with a
 * per-entry build state (Empty -> Building -> Ready), so get() is
 * safe from concurrent sweep threads, distinct workloads build
 * concurrently, and a caller needing a profile another thread is
 * already building waits on *that entry* — never on the whole
 * suite and never behind a library-wide lock held across a
 * detailed-core sim. buildSuite() fans the missing
 * (workload x mode) runs out over a thread pool and assembles
 * results deterministically in suite order, bitwise-identical to a
 * serial build; gpmd runs it in the background while get() serves.
 */
class ProfileLibrary
{
  public:
    /**
     * @param dvfs          mode table to profile under
     * @param length_scale  workload length scale (tests use < 1)
     */
    explicit ProfileLibrary(const DvfsTable &dvfs,
                            double length_scale = 1.0);
    ~ProfileLibrary();

    /**
     * Get the profile for @p name, building it on first use (after
     * probing the attached store, if any). The returned reference
     * is stable for the library's lifetime. If another thread is
     * already building @p name, waits for that build.
     */
    const WorkloadProfile &get(const std::string &name);

    /**
     * Attach the content-addressed profile store rooted at @p dir
     * (created if missing): get() and buildSuite() then probe it
     * before building and write through to it after. Attach before
     * serving traffic. @p breakerOpts tunes the store's read-path
     * circuit breaker (persistent I/O faults degrade the library to
     * build-from-trace instead of stalling on a sick disk).
     */
    void attachStore(const std::string &dir,
                     BreakerOptions breakerOpts = BreakerOptions{});

    /**
     * Ensure every suite profile is Ready: probe the attached store
     * for each missing workload, then fan the remaining
     * (workload x mode) detailed-core runs out over a transient
     * thread pool (@p concurrency; 0 = defaultConcurrency()) and
     * assemble + publish in suite order. Safe to run while get()
     * serves other threads; assembled profiles are bitwise-identical
     * to serially built ones.
     */
    void buildSuite(std::size_t concurrency = 0);

    /**
     * Content fingerprint of one workload's profile inputs: store
     * format version, length scale, the DvfsTable, the CoreConfig,
     * and every WorkloadSpec field. Addresses entries in the
     * attached store — changing any input re-addresses (and so
     * rebuilds) only the profiles it affects.
     */
    std::uint64_t workloadFingerprint(const WorkloadSpec &spec) const;

    ProfileLibraryStats stats() const;

  private:
    /** One profile entry; its address never changes once created. */
    struct Slot
    {
        enum class State
        {
            Empty,    ///< nothing yet
            Building, ///< one thread is building/loading it
            Ready     ///< profile is valid and immutable
        };
        State state = State::Empty;
        WorkloadProfile profile;
    };

    Slot &slotForLocked(const std::string &name);
    void publishLocked(Slot &s, WorkloadProfile &&p, bool fromDisk,
                       std::uint64_t build_ms);

    const DvfsTable &dvfs;
    double lengthScale;
    /** Core configuration profiled under (Table 1 defaults); mixed
     *  into workloadFingerprint(). */
    CoreConfig cfg;
    /** Guards slots/counters; never held across a build. */
    mutable std::mutex mtx;
    /** Signalled on every slot state change. */
    std::condition_variable cv;
    /** unique_ptr: rehashing never invalidates references handed
     *  out; map: deterministic iteration. */
    std::map<std::string, std::unique_ptr<Slot>> slots;
    std::unique_ptr<ProfileStore> store;
    ProfileLibraryStats counters;
};

} // namespace gpm

#endif // GPM_TRACE_PHASE_PROFILE_HH
