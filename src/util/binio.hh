#ifndef GPM_UTIL_BINIO_HH
#define GPM_UTIL_BINIO_HH

/**
 * @file
 * Little-endian integer packing and the IEEE CRC32, shared by the
 * on-disk entry store (util/entry_store.hh, which owns the frame
 * and the file I/O) and the profile payload codec. Header-only and
 * dependency-free so any layer can use it. Integers are
 * little-endian unconditionally — the only hosts this targets.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace gpm
{
namespace binio
{

/** Plain table-driven CRC32 (IEEE 802.3 polynomial). */
inline std::uint32_t
crc32(const void *data, std::size_t len)
{
    static const auto table = [] {
        std::vector<std::uint32_t> t(256);
        for (std::uint32_t i = 0; i < 256; i++) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; k++)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = 0xffffffffu;
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; i++)
        c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

inline void
putLe(std::string &out, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; i++)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

inline std::uint64_t
getLe(const char *p, int bytes)
{
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; i++)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(p[i]))
            << (8 * i);
    return v;
}

} // namespace binio
} // namespace gpm

#endif // GPM_UTIL_BINIO_HH
