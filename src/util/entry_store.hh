/**
 * @file
 * EntryStore — the on-disk entry handling under gpm's two persistent
 * stores, the result disk cache (service/disk_cache.hh) and the
 * profile store (trace/profile_store.hh). The owner names an entry's
 * file and supplies its payload; this store does the rest.
 *
 * Format: one file per entry: an 8-byte magic that doubles as a
 * format version, the payload length (LE u64), the payload's IEEE
 * CRC32 (LE u32), then the payload (pinned by
 * tests/test_store_format.cc).
 *
 * Writes go to a temp file named by pid and a process-wide counter,
 * so no two writes share one, are fsync()d, and are rename()d into
 * place. The rename is the commit point: any reader, in this process
 * or another sharing the directory, sees a complete entry or none.
 *
 * Reads verify the frame. A bad magic, length or CRC, or a payload
 * the owner's decode check rejects, is *quarantined*: renamed aside
 * to `<name>.corrupt` (unlinked if that fails) and reported as a
 * miss, so a damaged entry is rebuilt once and never served.
 *
 * A circuit breaker (util/breaker.hh) watches the reads. Verified
 * reads and absence (ENOENT, ENOTDIR) are successes; corruption,
 * injected stalls and any other open or read error (EIO, EISDIR,
 * ...) are failures, and an unreadable entry is left in place. While
 * the breaker is open, reads miss and writes are skipped without
 * touching the disk; after the cooldown one read probes it. Write
 * failures never feed the breaker — they only cost persistence.
 *
 * Each owner names three fault points (util/fault.hh): read-corrupt
 * treats a verified read as corrupt, read-stall stalls a read for
 * its delay-ms and fails it, write-fail fails a write up front.
 *
 * Thread-safety: safe from any thread; no lock is held across file
 * I/O (the store's mutex guards its counters only).
 */

#ifndef GPM_UTIL_ENTRY_STORE_HH
#define GPM_UTIL_ENTRY_STORE_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "util/breaker.hh"
#include "util/fault.hh"

namespace gpm
{

/** Counters since construction (quarantines include injected
 *  read-corrupt fires). */
struct EntryStoreStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t writeFailures = 0;
    /** Reads/writes refused by the open breaker. */
    std::uint64_t breakerRefusals = 0;
    /** Breaker transitions to open since construction. */
    std::uint64_t breakerOpens = 0;
    /** "closed" | "open" | "half-open". */
    const char *breakerState = "closed";
};

class EntryStore
{
  public:
    struct Faults
    {
        fault::Point readCorrupt, readStall, writeFail;
    };

    enum class Read
    {
        Hit,
        Absent, ///< no entry file (never written, or quarantined)
        Failed  ///< refused, stalled or unreadable; file untouched
    };

    /** Bytes the frame adds to a payload. */
    static constexpr std::uint64_t kFrameBytes = 8 + 8 + 4;

    /** Binds to (and creates if missing) directory @p dir; @p label
     *  prefixes log lines. */
    EntryStore(std::string dir, const char (&magic)[8],
               const char *label, Faults faults,
               BreakerOptions breakerOpts);

    /** Read entry @p name into @p payload; a payload @p decode
     *  rejects is quarantined like a CRC mismatch. */
    Read read(const std::string &name, std::string &payload,
              const std::function<bool(const std::string &)>
                  &decode = nullptr);

    /** Commit @p payload as entry @p name; false if it did not. */
    bool write(const std::string &name, const std::string &payload);

    std::string pathFor(const std::string &name) const
    {
        return dir + "/" + name;
    }

    const std::string &directory() const { return dir; }

    EntryStoreStats stats() const;

    const CircuitBreaker &readBreaker() const { return breaker; }

  private:
    void count(std::uint64_t &counter);
    void quarantine(const std::string &path);

    const std::string dir;
    char magic[8];
    const char *label;
    const Faults faults;
    CircuitBreaker breaker;
    mutable std::mutex mtx;
    EntryStoreStats counters; ///< guarded by mtx
};

} // namespace gpm

#endif // GPM_UTIL_ENTRY_STORE_HH
