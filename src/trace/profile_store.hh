/**
 * @file
 * Content-addressed on-disk store of WorkloadProfiles: one
 * EntryStore entry (util/entry_store.hh: the frame, the atomic
 * write, quarantine, the read breaker and the
 * `profile-read-corrupt` / `profile-read-stall` /
 * `profile-write-fail` fault points) per (workload spec, DvfsTable,
 * length-scale, core-config) fingerprint, named
 * `<workload>.<16-hex-fp>.gpmp`.
 *
 * Because the fingerprint is part of the file name, changing one
 * knob (a DVFS voltage, a phase fraction, the length scale) simply
 * addresses different files: only profiles whose inputs actually
 * changed are rebuilt, stale entries are left behind harmlessly,
 * and one directory can serve daemons running at different scales
 * or be shared between hosts. While the read breaker is open the
 * library rebuilds from the trace model instead of touching the
 * sick disk.
 */

#ifndef GPM_TRACE_PROFILE_STORE_HH
#define GPM_TRACE_PROFILE_STORE_HH

#include <cstdint>
#include <string>

#include "trace/phase_profile.hh"
#include "util/entry_store.hh"

namespace gpm
{

/** Monotonic counters; see ProfileStore::stats(). */
using ProfileStoreStats = EntryStoreStats;

class ProfileStore
{
  public:
    /** Binds to (and creates if missing) directory @p dir. */
    explicit ProfileStore(std::string dir,
                          BreakerOptions breakerOpts =
                              BreakerOptions{});

    /**
     * Load the profile for (@p name, @p fp) into @p out.
     * @retval false on a miss: absent, unreadable, corrupt
     *         (quarantined), or refused by the open breaker.
     */
    bool load(const std::string &name, std::uint64_t fp,
              WorkloadProfile &out);

    /**
     * Persist @p p as the entry for (@p name, @p fp), atomically.
     * @retval false on I/O failure or the profile-write-fail fault
     *         point (the profile is simply rebuilt next cold start).
     */
    bool save(const std::string &name, std::uint64_t fp,
              const WorkloadProfile &p);

    /** Entry file name: `<name>.<16-hex-fp>.gpmp`. */
    static std::string fileNameFor(const std::string &name,
                                   std::uint64_t fp);

    /** Full path of the entry for (@p name, @p fp). */
    std::string pathFor(const std::string &name,
                        std::uint64_t fp) const;

    const std::string &directory() const { return store.directory(); }

    ProfileStoreStats stats() const { return store.stats(); }

    /** The read-path breaker (chaos tests poke its state). */
    const CircuitBreaker &readBreaker() const
    {
        return store.readBreaker();
    }

  private:
    EntryStore store;
};

} // namespace gpm

#endif // GPM_TRACE_PROFILE_STORE_HH
