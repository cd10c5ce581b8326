#include "service/disk_cache.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include "util/logging.hh"

namespace gpm
{

namespace
{

constexpr char kMagic[8] = {'G', 'P', 'M', 'C',
                            'A', 'C', 'H', '1'};

} // namespace

DiskCache::DiskCache(std::string dir, std::uint64_t maxBytes_,
                     BreakerOptions breakerOpts)
    : store(std::move(dir), kMagic, "disk cache",
            {fault::Point::DiskReadCorrupt, fault::Point::DiskReadStall,
             fault::Point::DiskWriteFail},
            breakerOpts),
      maxBytes(maxBytes_)
{
    std::lock_guard<std::mutex> lock(mtx);
    scanDirLocked();
}

std::string
DiskCache::fileNameFor(std::uint64_t hash)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx.gpmc",
                  static_cast<unsigned long long>(hash));
    return buf;
}

void
DiskCache::scanDirLocked()
{
    const std::string &dir = store.directory();
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return;
    struct Found
    {
        std::uint64_t hash;
        std::uint64_t bytes;
        time_t mtime;
    };
    std::vector<Found> found;
    while (const dirent *e = ::readdir(d)) {
        const char *name = e->d_name;
        std::size_t len = std::strlen(name);
        if (len != 16 + 5 || std::strcmp(name + 16, ".gpmc") != 0)
            continue;
        char *end = nullptr;
        std::uint64_t hash = std::strtoull(name, &end, 16);
        if (end != name + 16)
            continue;
        struct stat st;
        std::string path = dir + "/" + name;
        if (::stat(path.c_str(), &st) != 0 ||
            !S_ISREG(st.st_mode))
            continue;
        found.push_back({hash,
                         static_cast<std::uint64_t>(st.st_size),
                         st.st_mtime});
    }
    ::closedir(d);
    // Oldest first so the LRU back holds the stalest entries; ties
    // break on hash for a deterministic order.
    std::sort(found.begin(), found.end(),
              [](const Found &a, const Found &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.hash < b.hash;
              });
    for (const Found &f : found)
        insertLocked(f.hash, f.bytes);
}

void
DiskCache::insertLocked(std::uint64_t hash, std::uint64_t bytes)
{
    auto it = index.find(hash);
    if (it != index.end()) {
        totalBytes -= it->second->bytes;
        it->second->bytes = bytes;
        totalBytes += bytes;
        lru.splice(lru.begin(), lru, it->second);
        return;
    }
    lru.push_front({hash, bytes});
    index[hash] = lru.begin();
    totalBytes += bytes;
}

void
DiskCache::forgetLocked(std::uint64_t hash)
{
    auto it = index.find(hash);
    if (it == index.end())
        return;
    totalBytes -= it->second->bytes;
    lru.erase(it->second);
    index.erase(it);
}

void
DiskCache::evictToBudgetLocked()
{
    if (maxBytes == 0)
        return;
    while (totalBytes > maxBytes && !lru.empty()) {
        const Entry victim = lru.back();
        // Unlink before forgetting so a failed unlink (already gone
        // — e.g. another daemon evicted it) still drops the entry.
        std::string name = fileNameFor(victim.hash);
        if (::unlink(store.pathFor(name).c_str()) != 0 &&
            errno != ENOENT)
            warn("disk cache: cannot evict %s: %s", name.c_str(),
                 std::strerror(errno));
        forgetLocked(victim.hash);
        evictions++;
    }
}

bool
DiskCache::get(std::uint64_t hash, std::string &payload)
{
    std::lock_guard<std::mutex> lock(mtx);
    // Probe the filesystem even when the index misses: another
    // process sharing the directory may have committed the entry
    // after our startup scan.
    EntryStore::Read r = store.read(fileNameFor(hash), payload);
    if (r == EntryStore::Read::Hit)
        insertLocked(hash, EntryStore::kFrameBytes + payload.size());
    else if (r == EntryStore::Read::Absent)
        forgetLocked(hash); // gone, or just quarantined
    return r == EntryStore::Read::Hit;
}

void
DiskCache::put(std::uint64_t hash, const std::string &payload)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (auto it = index.find(hash); it != index.end()) {
        lru.splice(lru.begin(), lru, it->second);
        return;
    }
    if (!store.write(fileNameFor(hash), payload))
        return;
    insertLocked(hash, EntryStore::kFrameBytes + payload.size());
    evictToBudgetLocked();
}

DiskCacheStats
DiskCache::stats() const
{
    std::lock_guard<std::mutex> lock(mtx);
    DiskCacheStats s;
    static_cast<EntryStoreStats &>(s) = store.stats();
    s.evictions = evictions;
    s.entries = lru.size();
    s.bytes = totalBytes;
    return s;
}

} // namespace gpm
