#include "service/ring.hh"

#include <algorithm>

namespace gpm
{

namespace
{

/** FNV-1a over the backend name — the per-backend seed. Keyed on
 *  the name (not the config position) so reordering the backend
 *  list never moves a key. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** splitmix64 finalizer: a full-avalanche 64-bit mix, so scores
 *  from adjacent keys or similar names are uncorrelated (the
 *  balance bound in the tests depends on this). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

RendezvousRing::RendezvousRing(std::vector<std::string> names)
    : names_(std::move(names))
{
    seeds_.reserve(names_.size());
    for (const auto &n : names_)
        seeds_.push_back(fnv1a(n));
}

std::uint64_t
RendezvousRing::score(std::uint64_t key, std::size_t i) const
{
    return mix64(key ^ seeds_[i]);
}

std::size_t
RendezvousRing::owner(std::uint64_t key) const
{
    std::size_t best = npos;
    std::uint64_t bestScore = 0;
    for (std::size_t i = 0; i < seeds_.size(); i++) {
        std::uint64_t s = score(key, i);
        // Ties (astronomically unlikely) break toward the smaller
        // seed so the winner is still order-independent.
        if (best == npos || s > bestScore ||
            (s == bestScore && seeds_[i] < seeds_[best])) {
            best = i;
            bestScore = s;
        }
    }
    return best;
}

std::size_t
RendezvousRing::owner(std::uint64_t key,
                      const std::vector<char> &eligible) const
{
    std::size_t best = npos;
    std::uint64_t bestScore = 0;
    for (std::size_t i = 0; i < seeds_.size(); i++) {
        if (!eligible[i])
            continue;
        std::uint64_t s = score(key, i);
        if (best == npos || s > bestScore ||
            (s == bestScore && seeds_[i] < seeds_[best])) {
            best = i;
            bestScore = s;
        }
    }
    return best;
}

std::vector<std::size_t>
RendezvousRing::rank(std::uint64_t key) const
{
    std::vector<std::size_t> order(seeds_.size());
    for (std::size_t i = 0; i < order.size(); i++)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  std::uint64_t sa = score(key, a);
                  std::uint64_t sb = score(key, b);
                  if (sa != sb)
                      return sa > sb;
                  return seeds_[a] < seeds_[b];
              });
    return order;
}

} // namespace gpm
