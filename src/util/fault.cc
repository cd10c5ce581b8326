#include "util/fault.hh"

#include <array>
#include <chrono>
#include <mutex>
#include <thread>

#include "util/flags.hh"
#include "util/rng.hh"

namespace gpm::fault
{

namespace detail
{
std::atomic<bool> g_armed{false};
} // namespace detail

namespace
{

struct PointConfig
{
    bool on = false;
    double probability = 1.0;
    int delayMs = 0;
};

constexpr std::uint64_t kDefaultSeed = 1;

struct State
{
    std::mutex mtx;
    std::array<PointConfig, kPoints> points{};
    std::array<std::atomic<std::uint64_t>, kPoints> fired{};
    Rng rng{kDefaultSeed};
};

State &
state()
{
    static State s;
    return s;
}

constexpr const char *kNames[kPoints] = {
    "accept-delay",      "conn-stall",   "read-drop",
    "worker-throw",      "worker-stall", "response-delay",
    "disk-read-corrupt", "disk-write-fail",
    "profile-read-corrupt", "profile-write-fail",
    "chip-sim-throw",     "disk-read-stall",
    "profile-read-stall", "clock-skew",
};

void
resetLocked(State &s, std::uint64_t seed)
{
    for (auto &p : s.points)
        p = PointConfig{};
    for (auto &f : s.fired)
        f.store(0, std::memory_order_relaxed);
    s.rng = Rng(seed);
}

} // namespace

const char *
name(Point p)
{
    return kNames[static_cast<std::size_t>(p)];
}

std::optional<Point>
pointByName(std::string_view n)
{
    for (std::size_t i = 0; i < kPoints; i++)
        if (n == kNames[i])
            return static_cast<Point>(i);
    return std::nullopt;
}

std::optional<std::string>
arm(const std::string &spec)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    detail::g_armed.store(false, std::memory_order_relaxed);

    // Two passes: pick up the seed first so arming order does not
    // depend on where "seed:N" appears in the spec.
    std::uint64_t seed = kDefaultSeed;
    std::array<PointConfig, kPoints> parsed{};
    bool any = false;

    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        std::string item = spec.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        start = comma == std::string::npos ? spec.size() + 1
                                           : comma + 1;
        if (item.empty())
            continue;

        // Split "name[:a[:b]]".
        std::string fields[3];
        std::size_t nfields = 0, fstart = 0;
        while (nfields < 3) {
            std::size_t colon = item.find(':', fstart);
            if (colon == std::string::npos) {
                fields[nfields++] = item.substr(fstart);
                break;
            }
            fields[nfields++] = item.substr(fstart, colon - fstart);
            fstart = colon + 1;
            if (nfields == 3 && fstart <= item.size())
                return "too many ':' fields in '" + item + "'";
        }

        if (fields[0] == "seed") {
            if (nfields != 2 || fields[1].empty())
                return "seed needs exactly one value";
            auto v = parseNumber<std::uint64_t>(fields[1].c_str());
            if (!v)
                return "bad seed '" + fields[1] + "'";
            seed = *v;
            continue;
        }

        auto point = pointByName(fields[0]);
        if (!point)
            return "unknown fault point '" + fields[0] + "'";
        PointConfig cfg;
        cfg.on = true;
        if (nfields >= 2 && !fields[1].empty()) {
            auto p = parseNumber<double>(fields[1].c_str());
            if (!p || *p < 0.0 || *p > 1.0)
                return "bad probability '" + fields[1] + "' in '" +
                    item + "'";
            cfg.probability = *p;
        }
        if (nfields >= 3 && !fields[2].empty()) {
            auto ms = parseNumber<int>(fields[2].c_str());
            if (!ms || *ms < 0 || *ms > 600000)
                return "bad delay-ms '" + fields[2] + "' in '" +
                    item + "'";
            cfg.delayMs = *ms;
        }
        parsed[static_cast<std::size_t>(*point)] = cfg;
        any = true;
    }

    resetLocked(s, seed);
    s.points = parsed;
    detail::g_armed.store(any, std::memory_order_relaxed);
    return std::nullopt;
}

void
disarm()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    detail::g_armed.store(false, std::memory_order_relaxed);
    resetLocked(s, kDefaultSeed);
}

bool
fire(Point p)
{
    if (!armed())
        return false;
    State &s = state();
    std::size_t i = static_cast<std::size_t>(p);
    bool fired;
    {
        std::lock_guard<std::mutex> lock(s.mtx);
        if (!s.points[i].on)
            return false;
        fired = s.rng.chance(s.points[i].probability);
    }
    if (fired)
        s.fired[i].fetch_add(1, std::memory_order_relaxed);
    return fired;
}

bool
maybeDelay(Point p)
{
    if (!fire(p))
        return false;
    int ms;
    {
        State &s = state();
        std::lock_guard<std::mutex> lock(s.mtx);
        ms = s.points[static_cast<std::size_t>(p)].delayMs;
    }
    if (ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return true;
}

int
configuredDelayMs(Point p)
{
    if (!armed())
        return 0;
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    const PointConfig &cfg =
        s.points[static_cast<std::size_t>(p)];
    return cfg.on ? cfg.delayMs : 0;
}

std::uint64_t
fires(Point p)
{
    return state()
        .fired[static_cast<std::size_t>(p)]
        .load(std::memory_order_relaxed);
}

} // namespace gpm::fault
