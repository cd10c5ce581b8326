/**
 * @file
 * RendezvousRing — highest-random-weight (HRW) consistent hashing,
 * with which gpmctl places each scenario on one of the gpmd
 * endpoints its --host list names.
 *
 * Each endpoint contributes a seed derived from its *name* (FNV-1a
 * of "host:port"), and a key's score against an endpoint is a
 * 64-bit mix of (key ^ seed). The key's owner is the
 * highest-scoring endpoint. Properties the client leans on:
 *
 *  - Determinism: the mapping is a pure function of (key, endpoint
 *    names) — every client process computes the same placement
 *    with no coordination or persisted state, whatever order its
 *    --host list is written in.
 *  - Minimal remap: adding or removing one endpoint only moves the
 *    keys that endpoint wins (~1/N of the space); everything else
 *    keeps its owner, so fleet membership changes do not churn the
 *    per-daemon memory caches.
 *  - Natural failover ranking: scores order ALL endpoints per key,
 *    so "the next replica" for a key is well-defined — a retried
 *    failure moves to the next endpoint in rank() order, and
 *    owner() with an eligibility mask gives that replica directly.
 *
 * Keys are canonical scenario hashes (ScenarioSpec::hash()), i.e.
 * exactly the result-cache key: a scenario always lands on the
 * same daemon, so each daemon's memory LRU only warms its own
 * shard of the keyspace.
 */

#ifndef GPM_SERVICE_RING_HH
#define GPM_SERVICE_RING_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gpm
{

class RendezvousRing
{
  public:
    static constexpr std::size_t npos =
        static_cast<std::size_t>(-1);

    /** Backend names ("host:port"); order does not affect
     *  placement — only the name bytes do. */
    explicit RendezvousRing(std::vector<std::string> names);

    std::size_t size() const { return names_.size(); }
    const std::string &name(std::size_t i) const
    {
        return names_[i];
    }

    /** The key's owner with every backend eligible. */
    std::size_t owner(std::uint64_t key) const;

    /**
     * The key's owner restricted to backends with
     * eligible[i] != 0 — the highest-scoring eligible backend,
     * or npos when none is. eligible.size() must equal size().
     */
    std::size_t owner(std::uint64_t key,
                      const std::vector<char> &eligible) const;

    /** All backends ordered by descending score for @p key (the
     *  per-key failover order). */
    std::vector<std::size_t> rank(std::uint64_t key) const;

    /** The HRW score of @p key against backend @p i. */
    std::uint64_t score(std::uint64_t key, std::size_t i) const;

  private:
    std::vector<std::string> names_;
    std::vector<std::uint64_t> seeds_;
};

} // namespace gpm

#endif // GPM_SERVICE_RING_HH
