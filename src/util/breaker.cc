#include "util/breaker.hh"

#include <chrono>

#include "util/fault.hh"

namespace gpm
{

namespace
{

/** Failure fraction of the window at/over which the breaker
 *  opens. */
constexpr double kFailureThreshold = 0.5;

} // namespace

CircuitBreaker::CircuitBreaker(BreakerOptions opts_)
    : opts(opts_), rng(opts_.seed)
{
    if (opts.window == 0)
        opts.window = 1;
    if (opts.minSamples == 0)
        opts.minSamples = 1;
    if (opts.minSamples > opts.window)
        opts.minSamples = opts.window;
    ring.assign(opts.window, 0);
}

double
CircuitBreaker::nowMs()
{
    // The clock-skew fault advances this breaker's private clock by
    // its delay-ms per fire: a forward jump can end a cooldown
    // early (the probe just happens sooner) but can never push
    // reopenAtMs out of reach — the offset is monotonic.
    if (fault::armed() && fault::fire(fault::Point::ClockSkew))
        skewMs += static_cast<double>(
            fault::configuredDelayMs(fault::Point::ClockSkew));
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now()
                   .time_since_epoch())
               .count() +
        skewMs;
}

void
CircuitBreaker::pushOutcomeLocked(bool failure)
{
    if (samples == opts.window) {
        // Window full: the slot at head is the oldest — retire it.
        failures -= ring[ringHead] != 0;
    } else {
        samples++;
    }
    ring[ringHead] = failure ? 1 : 0;
    failures += failure ? 1 : 0;
    ringHead = (ringHead + 1) % opts.window;
}

void
CircuitBreaker::openLocked(double now)
{
    st = State::Open;
    openCount++;
    probeInFlight = false;
    reopenAtMs =
        now + opts.cooldownMs * rng.uniform(1.0, 1.5);
}

bool
CircuitBreaker::allow()
{
    std::lock_guard<std::mutex> lock(mtx);
    switch (st) {
    case State::Closed:
        return true;
    case State::Open:
        if (nowMs() < reopenAtMs)
            return false;
        st = State::HalfOpen;
        probeInFlight = true;
        return true;
    case State::HalfOpen:
        if (probeInFlight)
            return false;
        probeInFlight = true;
        return true;
    }
    return true; // unreachable
}

void
CircuitBreaker::recordSuccess()
{
    std::lock_guard<std::mutex> lock(mtx);
    if (st == State::HalfOpen) {
        // The probe came back healthy: close with a clean slate so
        // pre-outage failures cannot immediately re-trip.
        st = State::Closed;
        probeInFlight = false;
        ring.assign(opts.window, 0);
        ringHead = samples = failures = 0;
        return;
    }
    if (st == State::Closed)
        pushOutcomeLocked(false);
}

void
CircuitBreaker::recordFailure()
{
    std::lock_guard<std::mutex> lock(mtx);
    if (st == State::HalfOpen) {
        openLocked(nowMs());
        return;
    }
    if (st != State::Closed)
        return;
    pushOutcomeLocked(true);
    if (samples >= opts.minSamples &&
        static_cast<double>(failures) >=
            kFailureThreshold * static_cast<double>(samples))
        openLocked(nowMs());
}

CircuitBreaker::State
CircuitBreaker::state() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return st;
}

const char *
CircuitBreaker::stateName(State s)
{
    switch (s) {
    case State::Closed:
        return "closed";
    case State::Open:
        return "open";
    case State::HalfOpen:
        return "half-open";
    }
    return "?";
}

const char *
CircuitBreaker::stateName() const
{
    return stateName(state());
}

std::uint64_t
CircuitBreaker::opens() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return openCount;
}

} // namespace gpm
