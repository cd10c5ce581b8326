#include "trace/profile_store.hh"

#include <cstdio>
#include <cstring>

#include "util/binio.hh"

namespace gpm
{

namespace
{

/** Entry payload layout (wrapped in the EntryStore frame): name
 *  length (LE u32) + name bytes, mode count (LE u32), then per mode
 *  chunkInsts (LE u64), lastChunkInsts (LE u64), chunk count
 *  (LE u32) and the raw ChunkRecord array. The magic doubles as the
 *  format version — bump the trailing digit on layout changes. */
constexpr char kMagic[8] = {'G', 'P', 'M', 'P',
                            'R', 'O', 'F', '1'};

std::string
serializeProfile(const WorkloadProfile &p)
{
    std::string out;
    binio::putLe(out, p.name.size(), 4);
    out += p.name;
    binio::putLe(out, p.modes.size(), 4);
    for (const ModeProfile &mp : p.modes) {
        binio::putLe(out, mp.chunkInsts, 8);
        binio::putLe(out, mp.lastChunkInsts, 8);
        binio::putLe(out, mp.chunks.size(), 4);
        out.append(
            reinterpret_cast<const char *>(mp.chunks.data()),
            mp.chunks.size() * sizeof(ChunkRecord));
    }
    return out;
}

bool
parseProfile(const std::string &in, WorkloadProfile &out)
{
    std::size_t off = 0;
    auto need = [&](std::size_t n) { return in.size() - off >= n; };
    auto ru32 = [&](std::uint32_t &v) {
        if (!need(4))
            return false;
        v = static_cast<std::uint32_t>(
            binio::getLe(in.data() + off, 4));
        off += 4;
        return true;
    };
    auto ru64 = [&](std::uint64_t &v) {
        if (!need(8))
            return false;
        v = binio::getLe(in.data() + off, 8);
        off += 8;
        return true;
    };

    WorkloadProfile p;
    std::uint32_t name_len = 0;
    if (!ru32(name_len) || name_len > 256 || !need(name_len))
        return false;
    p.name.assign(in, off, name_len);
    off += name_len;
    std::uint32_t n_modes = 0;
    if (!ru32(n_modes) || n_modes > 64)
        return false;
    for (std::uint32_t m = 0; m < n_modes; m++) {
        ModeProfile mp;
        std::uint32_t n_chunks = 0;
        if (!ru64(mp.chunkInsts) || !ru64(mp.lastChunkInsts) ||
            !ru32(n_chunks) || n_chunks > 100'000'000 ||
            !need(static_cast<std::size_t>(n_chunks) *
                  sizeof(ChunkRecord)))
            return false;
        mp.chunks.resize(n_chunks);
        std::memcpy(mp.chunks.data(), in.data() + off,
                    n_chunks * sizeof(ChunkRecord));
        off += static_cast<std::size_t>(n_chunks) *
            sizeof(ChunkRecord);
        p.modes.push_back(std::move(mp));
    }
    if (off != in.size()) // trailing garbage
        return false;
    out = std::move(p);
    return true;
}

} // namespace

ProfileStore::ProfileStore(std::string dir,
                           BreakerOptions breakerOpts)
    : store(std::move(dir), kMagic, "profile store",
            {fault::Point::ProfileReadCorrupt,
             fault::Point::ProfileReadStall,
             fault::Point::ProfileWriteFail},
            breakerOpts)
{
}

std::string
ProfileStore::fileNameFor(const std::string &name, std::uint64_t fp)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), ".%016llx.gpmp",
                  static_cast<unsigned long long>(fp));
    return name + buf;
}

std::string
ProfileStore::pathFor(const std::string &name,
                      std::uint64_t fp) const
{
    return store.pathFor(fileNameFor(name, fp));
}

bool
ProfileStore::load(const std::string &name, std::uint64_t fp,
                   WorkloadProfile &out)
{
    WorkloadProfile p;
    std::string payload;
    // The name is content-addressed into the path, but the payload
    // carries it too: a mismatch means a renamed/clobbered file and
    // counts as corruption.
    auto decode = [&](const std::string &bytes) {
        return parseProfile(bytes, p) && p.name == name;
    };
    if (store.read(fileNameFor(name, fp), payload, decode) !=
        EntryStore::Read::Hit)
        return false;
    out = std::move(p);
    return true;
}

bool
ProfileStore::save(const std::string &name, std::uint64_t fp,
                   const WorkloadProfile &p)
{
    return store.write(fileNameFor(name, fp), serializeProfile(p));
}

} // namespace gpm
