/**
 * @file
 * CircuitBreaker — failure-domain isolation for flaky dependencies
 * (the disk result cache, the profile store). The classic three
 * states:
 *
 *     closed ──(failure rate over the sample window crosses the
 *       ▲       threshold)──▶ open
 *       │                      │ cooldown (jittered) elapses
 *       │                      ▼
 *       └──(probe succeeds)─ half-open ──(probe fails)──▶ open
 *
 * Closed: every call is allowed; outcomes feed a sliding window of
 * the last `window` samples. Once at least `minSamples` outcomes
 * are in the window and at least half of them are failures, the
 * breaker opens.
 *
 * Open: every call is refused (the caller degrades — e.g. a cache
 * treats the refusal as a miss) until `cooldownMs`, multiplied by a
 * seeded jitter factor in [1, 1.5) so breakers across a fleet do
 * not probe in lockstep, has elapsed.
 *
 * Half-open: exactly ONE caller is allowed through as a probe; the
 * rest keep being refused. The probe's success closes the breaker
 * (window cleared); its failure re-opens it for another cooldown.
 *
 * Time: an internal monotonic clock, offset by the `clock-skew`
 * fault point — each fire jumps the clock forward by the point's
 * delay-ms, so chaos tests can prove cooldowns survive time jumps
 * (a jump can only ever end a cooldown early, never wedge it).
 *
 * Thread-safety: all methods are safe from any thread (one internal
 * mutex; the critical sections are a few loads and stores).
 */

#ifndef GPM_UTIL_BREAKER_HH
#define GPM_UTIL_BREAKER_HH

#include <cstdint>
#include <mutex>
#include <vector>

#include "util/rng.hh"

namespace gpm
{

/** CircuitBreaker tuning knobs. */
struct BreakerOptions
{
    /** Sliding outcome window (samples). */
    std::size_t window = 16;
    /** Outcomes required in the window before the failure rate can
     *  trip the breaker (a single early failure must not). */
    std::size_t minSamples = 8;
    /** Base open -> half-open cooldown [ms]; the actual cooldown is
     *  this times a seeded jitter factor in [1, 1.5). */
    double cooldownMs = 250.0;
    /** Jitter RNG seed (same seed, same probe schedule). */
    std::uint64_t seed = 1;
};

class CircuitBreaker
{
  public:
    enum class State
    {
        Closed,
        Open,
        HalfOpen
    };

    explicit CircuitBreaker(BreakerOptions opts = BreakerOptions{});

    CircuitBreaker(const CircuitBreaker &) = delete;
    CircuitBreaker &operator=(const CircuitBreaker &) = delete;

    /**
     * Gate a call to the guarded dependency. True = proceed (and
     * report the outcome via recordSuccess()/recordFailure());
     * false = refused, degrade without touching the dependency.
     * An open breaker whose cooldown has elapsed transitions to
     * half-open here and admits the caller as the probe.
     */
    bool allow();

    /** Report a guarded call's outcome. A half-open probe's success
     *  closes the breaker; its failure re-opens it. */
    void recordSuccess();
    void recordFailure();

    State state() const;
    /** "closed" | "open" | "half-open". */
    const char *stateName() const;
    static const char *stateName(State s);

    /** Times the breaker transitioned closed/half-open -> open. */
    std::uint64_t opens() const;

    const BreakerOptions &options() const { return opts; }

  private:
    double nowMs();
    void pushOutcomeLocked(bool failure);
    void openLocked(double now);

    BreakerOptions opts;

    mutable std::mutex mtx;
    State st = State::Closed;
    /** Ring buffer of the last `window` outcomes (1 = failure). */
    std::vector<char> ring;
    std::size_t ringHead = 0;
    std::size_t samples = 0;
    std::size_t failures = 0;
    /** Half-open: the single probe slot is taken. */
    bool probeInFlight = false;
    double reopenAtMs = 0.0;
    double skewMs = 0.0;
    std::uint64_t openCount = 0;
    Rng rng;
};

} // namespace gpm

#endif // GPM_UTIL_BREAKER_HH
