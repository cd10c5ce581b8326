/**
 * @file
 * Fault injection for the scenario service and the profile pipeline
 * — the chaos-testing backbone. A small set of *named fault points*
 * is compiled into the serving path permanently; each point is
 * disarmed by default and costs exactly one relaxed atomic load at
 * its call site until a test (or an operator, via `gpmd --fault` /
 * the GPMD_FAULT environment variable) arms it.
 *
 * (Lives in util/ so every layer can host a fault point: the profile
 * store in trace/ sits below the service library in the link order.)
 *
 * Fault points:
 *
 *   accept-delay    sleep before handing an accepted connection to
 *                   its thread (slow accept loop)
 *   conn-stall      sleep between reading a request line and
 *                   handling it (a stalled/slow connection)
 *   read-drop       silently discard a received request line (lost
 *                   request; the client sees no response and must
 *                   time out and retry)
 *   worker-throw    throw from inside worker sweep execution
 *                   (exercises crash containment: the worker
 *                   answers internal_error and keeps serving)
 *   worker-stall    sleep inside worker sweep execution before
 *                   computing (a deterministically long-running
 *                   request — pins the worker and its inFlight slot)
 *   response-delay  sleep between computing a response and writing
 *                   it (slow response path)
 *   disk-read-corrupt  treat a disk-cache entry as CRC-corrupt on
 *                   read (exercises quarantine + recompute)
 *   disk-write-fail    fail a disk-cache write (the entry is simply
 *                   not persisted; serving is unaffected)
 *   profile-read-corrupt  treat a profile-store entry as CRC-corrupt
 *                   on read (exercises quarantine + rebuild)
 *   profile-write-fail    fail a profile-store write (the profile is
 *                   rebuilt next cold start; serving is unaffected)
 *   chip-sim-throw  throw from inside a per-chip cluster simulation
 *                   (exercises the ClusterManager's containment: the
 *                   error surfaces as a structured per-chip failure,
 *                   not a worker crash)
 *   disk-read-stall    stall a disk-cache read for delay-ms and
 *                   treat it as an I/O failure (a sick disk: the
 *                   read-path circuit breaker must open and serve
 *                   memory-only)
 *   profile-read-stall stall a profile-store read for delay-ms and
 *                   treat it as an I/O failure (same, for the
 *                   profile store's breaker)
 *   clock-skew      jump a circuit breaker's internal clock forward
 *                   by delay-ms per fire (breaker cooldowns must
 *                   stay correct under time jumps — never crash or
 *                   wedge)
 *
 * Spec grammar (comma-separated, whitespace-free):
 *
 *   spec  := item (',' item)*
 *   item  := "seed" ':' N
 *          | name [':' probability [':' delay-ms]]
 *
 * e.g. "worker-throw:0.5,conn-stall:1:150,seed:42". Probability
 * defaults to 1, delay to 0 ms. Triggering is driven by one shared
 * PCG32 stream seeded from the spec (default seed 1), so a given
 * binary + spec + request sequence always fires the same faults —
 * chaos runs are reproducible.
 *
 * Thread-safety: arm()/disarm() must not race the serving path (arm
 * before serving starts, disarm after it stops — what gpmd and the
 * tests do); fire()/maybeDelay() are safe from any thread.
 */

#ifndef GPM_UTIL_FAULT_HH
#define GPM_UTIL_FAULT_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace gpm::fault
{

enum class Point : std::size_t
{
    AcceptDelay,
    ConnStall,
    ReadDrop,
    WorkerThrow,
    WorkerStall,
    ResponseDelay,
    DiskReadCorrupt,
    DiskWriteFail,
    ProfileReadCorrupt,
    ProfileWriteFail,
    ChipSimThrow,
    DiskReadStall,
    ProfileReadStall,
    ClockSkew,
    kCount
};

constexpr std::size_t kPoints =
    static_cast<std::size_t>(Point::kCount);

namespace detail
{
extern std::atomic<bool> g_armed;
} // namespace detail

/** True when any fault point is armed. The only cost a disarmed
 *  call site pays — guard every hook with it. */
inline bool
armed()
{
    return detail::g_armed.load(std::memory_order_relaxed);
}

/**
 * Parse @p spec (see grammar above) and arm the named points,
 * replacing any previous arming. Returns the parse-rejection
 * reason, or nullopt on success (an empty spec just disarms).
 */
std::optional<std::string> arm(const std::string &spec);

/** Disarm every point and reset fire counters and the RNG. */
void disarm();

/**
 * Roll the dice for @p p: false unless the point is armed and its
 * seeded Bernoulli trial fires. Fires are counted (see fires()).
 */
bool fire(Point p);

/** fire(p) and, when it fires, sleep the point's configured
 *  delay-ms. Returns whether it fired. */
bool maybeDelay(Point p);

/** The delay-ms configured for @p p (0 when disarmed or no delay
 *  was given). For fault points that consume the delay as a value
 *  instead of sleeping it — e.g. clock-skew's jump size. */
int configuredDelayMs(Point p);

/** Times @p p has fired since the last arm()/disarm(). */
std::uint64_t fires(Point p);

/** The spec-string name of @p p ("accept-delay", ...). */
const char *name(Point p);

/** Reverse of name(); nullopt for unknown names. */
std::optional<Point> pointByName(std::string_view name);

} // namespace gpm::fault

#endif // GPM_UTIL_FAULT_HH
