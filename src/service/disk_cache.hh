/**
 * @file
 * DiskCache — the persistent tier of the scenario service's result
 * cache: one EntryStore entry (util/entry_store.hh: the frame, the
 * atomic write, quarantine, the read breaker and the
 * `disk-read-corrupt` / `disk-read-stall` / `disk-write-fail` fault
 * points) per canonical scenario hash, named `<16-hex>.gpmc`.
 *
 * Sharing: entries written by other processes are found by probing
 * the filesystem on an index miss, so a fleet sharing one directory
 * shares one served-scenario corpus.
 *
 * Capacity: an in-memory LRU (seeded from file mtimes at startup,
 * oldest first) bounds the directory's total bytes. The budget is
 * enforced on insertion only — put() evicts least-recently-used
 * entries until the directory fits — so a restart with a smaller
 * budget keeps existing entries readable until the next write.
 *
 * Thread-safety: all methods are safe from any thread (one internal
 * mutex; file I/O happens under it — entries are small and the tier
 * sits behind the in-memory cache).
 */

#ifndef GPM_SERVICE_DISK_CACHE_HH
#define GPM_SERVICE_DISK_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "util/entry_store.hh"

namespace gpm
{

/** The store's counters plus the LRU's. */
struct DiskCacheStats : EntryStoreStats
{
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::uint64_t bytes = 0; ///< tracked on-disk entry bytes
};

class DiskCache
{
  public:
    /**
     * @param dir       cache directory (created if missing)
     * @param maxBytes  LRU bound on tracked entry bytes; 0 means
     *                  unbounded
     * @param breakerOpts  read-path circuit breaker tuning
     */
    DiskCache(std::string dir, std::uint64_t maxBytes,
              BreakerOptions breakerOpts = BreakerOptions{});

    DiskCache(const DiskCache &) = delete;
    DiskCache &operator=(const DiskCache &) = delete;

    /**
     * Load the entry for @p hash into @p payload. Probes the
     * filesystem even on an index miss (another process may have
     * committed the entry). True only when a verified payload was
     * read.
     */
    bool get(std::uint64_t hash, std::string &payload);

    /**
     * Persist @p payload under @p hash, then evict
     * least-recently-used entries until the tracked bytes fit the
     * budget. An entry already present just has its recency bumped
     * — payloads are content-deterministic per hash, so rewriting
     * would change nothing.
     */
    void put(std::uint64_t hash, const std::string &payload);

    DiskCacheStats stats() const;

    /** The read-path breaker (chaos tests poke its state). */
    const CircuitBreaker &readBreaker() const
    {
        return store.readBreaker();
    }

    const std::string &directory() const { return store.directory(); }

    /** `<16-hex>.gpmc`, the entry file name for @p hash. */
    static std::string fileNameFor(std::uint64_t hash);

  private:
    struct Entry
    {
        std::uint64_t hash = 0;
        std::uint64_t bytes = 0;
    };

    void scanDirLocked();
    void insertLocked(std::uint64_t hash, std::uint64_t bytes);
    void forgetLocked(std::uint64_t hash);
    void evictToBudgetLocked();

    mutable std::mutex mtx;
    EntryStore store;
    std::uint64_t maxBytes;

    /** Recency list, most recent at front. */
    std::list<Entry> lru;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator>
        index;
    std::uint64_t totalBytes = 0;
    std::uint64_t evictions = 0;
};

} // namespace gpm

#endif // GPM_SERVICE_DISK_CACHE_HH
