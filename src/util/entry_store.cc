#include "util/entry_store.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sys/stat.h>
#include <unistd.h>

#include "util/binio.hh"
#include "util/logging.hh"

namespace gpm
{

namespace
{

enum class FileRead
{
    Ok,
    Absent,
    Error ///< errno says why
};

FileRead
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return errno == ENOENT || errno == ENOTDIR ? FileRead::Absent
                                                   : FileRead::Error;
    char chunk[1 << 14];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        out.append(chunk, got);
    int err = std::ferror(f) ? errno : 0;
    std::fclose(f);
    errno = err;
    return err ? FileRead::Error : FileRead::Ok;
}

/** False (errno set, temp file removed) on any failure. */
bool
writeFileAtomic(const std::string &path, const std::string &blob)
{
    static std::atomic<std::uint64_t> seq{0};
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
        "." + std::to_string(seq++);
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    bool ok =
        std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
    ok = std::fflush(f) == 0 && ok;
    ok = ::fsync(::fileno(f)) == 0 && ok;
    int err = ok ? 0 : errno;
    ok = std::fclose(f) == 0 && ok;
    if (ok && ::rename(tmp.c_str(), path.c_str()) == 0)
        return true;
    err = err ? err : errno;
    ::unlink(tmp.c_str());
    errno = err;
    return false;
}

} // namespace

EntryStore::EntryStore(std::string dir_, const char (&magic_)[8],
                       const char *label_, Faults faults_,
                       BreakerOptions breakerOpts)
    : dir(std::move(dir_)), label(label_), faults(faults_),
      breaker(breakerOpts)
{
    std::memcpy(magic, magic_, sizeof(magic));
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        warn("%s: cannot create %s: %s", label, dir.c_str(),
             std::strerror(errno));
}

void
EntryStore::count(std::uint64_t &counter)
{
    std::lock_guard<std::mutex> lock(mtx);
    counter++;
}

void
EntryStore::quarantine(const std::string &path)
{
    count(counters.quarantined);
    std::string aside = path + ".corrupt";
    if (::rename(path.c_str(), aside.c_str()) != 0) {
        warn("%s: cannot quarantine %s: %s", label, path.c_str(),
             std::strerror(errno));
        ::unlink(path.c_str());
    } else {
        warn("%s: quarantined corrupt entry %s", label,
             aside.c_str());
    }
}

EntryStore::Read
EntryStore::read(const std::string &name, std::string &payload,
                 const std::function<bool(const std::string &)>
                     &decode)
{
    if (!breaker.allow()) {
        count(counters.breakerRefusals);
        count(counters.misses);
        return Read::Failed;
    }
    // A stalled read is the failure mode breakers exist for: pay
    // the injected delay once, count it against the window.
    if (fault::armed() && fault::maybeDelay(faults.readStall)) {
        breaker.recordFailure();
        count(counters.misses);
        return Read::Failed;
    }
    std::string path = pathFor(name), raw;
    FileRead got = readFile(path, raw);
    if (got != FileRead::Ok) {
        if (got == FileRead::Absent) {
            breaker.recordSuccess();
        } else {
            warn("%s: cannot read %s: %s", label, path.c_str(),
                 std::strerror(errno));
            breaker.recordFailure();
        }
        count(counters.misses);
        return got == FileRead::Absent ? Read::Absent : Read::Failed;
    }

    const std::size_t len = raw.size() - kFrameBytes;
    bool corrupt = raw.size() < kFrameBytes ||
        std::memcmp(raw.data(), magic, 8) != 0 ||
        binio::getLe(raw.data() + 8, 8) != len ||
        binio::crc32(raw.data() + kFrameBytes, len) !=
            binio::getLe(raw.data() + 16, 4) ||
        (fault::armed() && fault::fire(faults.readCorrupt));
    if (!corrupt)
        payload.assign(raw, kFrameBytes, len);
    if (corrupt || (decode && !decode(payload))) {
        breaker.recordFailure();
        quarantine(path);
        count(counters.misses);
        return Read::Absent;
    }
    breaker.recordSuccess();
    count(counters.hits);
    return Read::Hit;
}

bool
EntryStore::write(const std::string &name, const std::string &payload)
{
    // Writing to a disk the breaker holds open would stall the
    // caller the same way reads did. (Half-open is fine: the probe
    // is a read.)
    if (breaker.state() == CircuitBreaker::State::Open) {
        count(counters.breakerRefusals);
        return false;
    }
    if (fault::armed() && fault::fire(faults.writeFail)) {
        count(counters.writeFailures);
        return false;
    }
    std::string blob(magic, sizeof(magic));
    binio::putLe(blob, payload.size(), 8);
    binio::putLe(blob, binio::crc32(payload.data(), payload.size()),
                 4);
    if (!writeFileAtomic(pathFor(name), blob + payload)) {
        int err = errno;
        count(counters.writeFailures);
        warn("%s: cannot commit %s: %s", label, name.c_str(),
             std::strerror(err));
        return false;
    }
    return true;
}

EntryStoreStats
EntryStore::stats() const
{
    std::lock_guard<std::mutex> lock(mtx);
    EntryStoreStats s = counters;
    s.breakerOpens = breaker.opens();
    s.breakerState = breaker.stateName();
    return s;
}

} // namespace gpm
