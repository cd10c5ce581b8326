/**
 * @file
 * The benchmark's seeded request streams. Request i of a workload is
 * a pure function of (workload, seed, i), so the load generator and
 * the traced replay send and recompute exactly the same scenarios
 * without exchanging them.
 *
 * Request i submits scenario key i, and every key names one distinct
 * scenario: a template (combination, policy, sim knobs) and a budget
 * fraction from a seeded irrational rotation of i, so no two requests
 * share a canonical hash and every request misses gpmd's cache.
 *
 *  - cold:     2-8 core scenarios of the paper's Table 2 under its four
 *              policies: parse, hash, queue, exact policies and
 *              serialization make up a request.
 *  - manycore: 64-256 core phase-shifted chips under the approximate
 *              engines, where simulation and policy decisions dominate.
 */

#ifndef GPM_PERFBENCH_WORKLOAD_HH
#define GPM_PERFBENCH_WORKLOAD_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench
{

inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** FNV-1a over @p n bytes — the digest payloads are compared by. */
inline std::uint64_t
fnv1a(const char *p, std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < n; i++) {
        h ^= static_cast<unsigned char>(p[i]);
        h *= 0x100000001b3ull;
    }
    return h;
}

class Workload
{
  public:
    /** False when @p name is not a workload. */
    bool init(const std::string &name, std::uint64_t seed)
    {
        seed_ = seed;
        templates.clear();
        static const char *table2[] = {"2way1", "2way2", "2way3",
                                       "2way4", "4way1", "4way2",
                                       "4way3", "4way4", "8way1",
                                       "8way2"};
        static const char *paper[] = {"MaxBIPS", "Priority",
                                      "PullHiPushLo", "ChipWideDVFS"};
        static const char *many[] = {"many64", "many128", "many256"};
        static const char *engines[] = {"MaxBIPS-DP", "WaterFill",
                                        "GreedyTurbo"};
        // Closed-loop clients, one request in flight each. cold: two
        // per default gpmd worker (it runs two) keep the queue from
        // emptying. manycore: one per worker; each request is already
        // a millisecond of simulation.
        if (name == "cold") {
            conns_ = 4;
            for (const char *c : table2)
                for (const char *p : paper)
                    templates.push_back(std::string("{\"combo\":\"") +
                                        c + "\",\"policy\":\"" + p +
                                        "\",\"budget\":");
        } else if (name == "manycore") {
            conns_ = 2;
            for (const char *c : many)
                for (const char *p : engines)
                    templates.push_back(
                        std::string("{\"combo\":\"") + c +
                        "\",\"policy\":\"" + p +
                        "\",\"sim\":{\"phaseShiftStride\":0.1}"
                        ",\"budget\":");
        } else {
            return false;
        }
        return true;
    }

    /** Client connections. */
    std::size_t conns() const { return conns_; }

    /** The scenario object (JSON text) of key @p k. */
    std::string scenario(std::uint64_t k) const
    {
        // Templates go round-robin over keys, so every seed sees the
        // same cost mix; the seed moves the budgets.
        const std::string &t = templates[k % templates.size()];
        // Budgets in [0.5, 0.95): distinct for every key, all full
        // 17-digit doubles, so canonical hashes never collide.
        double phase = unit(splitmix64(seed_ + 0x2545f4914f6cdd1dull));
        double frac = phase + static_cast<double>(k) * 0.6180339887498949;
        frac -= std::floor(frac);
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g}", 0.5 + 0.45 * frac);
        return t + buf;
    }

  private:
    static double unit(std::uint64_t x)
    {
        return static_cast<double>(x >> 11) * 0x1.0p-53;
    }

    std::uint64_t seed_ = 0;
    std::size_t conns_ = 0;
    std::vector<std::string> templates;
};

} // namespace perfbench

#endif // GPM_PERFBENCH_WORKLOAD_HH
