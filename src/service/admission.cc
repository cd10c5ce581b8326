#include "service/admission.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace gpm
{

namespace
{

/** EWMA smoothing factor for the per-policy service times. */
constexpr double ewmaAlpha = 0.3;

} // namespace

AdmissionController::AdmissionController(AdmissionOptions opts_,
                                         std::size_t queueCapacity,
                                         std::size_t workers_)
    : opts(opts_), capacity(queueCapacity),
      workers(std::max<std::size_t>(1, workers_))
{
    opts.fairShare = std::clamp(opts.fairShare, 0.0, 1.0);
    opts.degradeDepth = std::clamp(opts.degradeDepth, 0.0, 1.0);
    clientShare = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               opts.fairShare * static_cast<double>(capacity)));
    degradeAt = static_cast<std::size_t>(
        std::ceil(opts.degradeDepth *
                  static_cast<double>(capacity)));
    if (degradeAt == 0)
        degradeAt = 1;
}

std::string
AdmissionController::serviceKeyFor(const std::string &policy,
                                   bool cluster)
{
    return cluster ? "cluster:" + policy : policy;
}

double
AdmissionController::knownEwmaLocked(
    const std::string &key) const
{
    auto it = ewmaMs.find(key);
    return it == ewmaMs.end() ? 0.0 : it->second;
}

double
AdmissionController::hintLocked(std::size_t load) const
{
    // How long until a freed worker could reach a retried request:
    // the backlog drained at the worker rate, in units of the
    // typical observed service time (50 ms guess before any
    // completion has been observed).
    double per = anyEwmaMs > 0.0 ? anyEwmaMs : 50.0;
    double hint = per *
        (static_cast<double>(load + 1) /
         static_cast<double>(workers));
    return std::clamp(hint, 10.0, 5000.0);
}

AdmissionController::Decision
AdmissionController::preAdmit(std::uint64_t clientId,
                              const std::string &serviceKey,
                              const std::string &floorKey,
                              double deadlineMs, std::size_t load)
{
    Decision d;
    if (!opts.enabled)
        return d;
    std::lock_guard<std::mutex> lock(mtx);
    d.overloaded = load >= degradeAt;

    // Fairness: a client already holding its share of the queue is
    // rejected so the remaining capacity serves everyone else.
    // Client 0 (in-process callers) is exempt.
    if (clientId != 0) {
        std::size_t held = 0;
        if (auto it = queuedByClient.find(clientId);
            it != queuedByClient.end())
            held = it->second;
        if (held >= clientShare) {
            shed++;
            d.admit = false;
            d.errorCode = "rejected_overload";
            d.errorMessage = "client already holds " +
                std::to_string(held) + " of its " +
                std::to_string(clientShare) +
                " queued-request slots";
            d.retryAfterMs = hintLocked(load);
            return d;
        }
    }

    // Doomed deadline: predict queue wait + service from the
    // cheapest solver this request could degrade to. No prediction
    // without an observed EWMA (a cold service admits everything),
    // and none at load 0: the request starts at once, and its
    // completion is what corrects an estimate gone stale.
    if (deadlineMs > 0.0 && load > 0) {
        double per = knownEwmaLocked(floorKey);
        if (per <= 0.0)
            per = knownEwmaLocked(serviceKey);
        if (per > 0.0) {
            double waitMs = per *
                (static_cast<double>(load) /
                 static_cast<double>(workers));
            double predictedMs = waitMs + per;
            if (predictedMs * opts.headroom > deadlineMs) {
                shed++;
                d.admit = false;
                d.errorCode = "rejected_overload";
                char buf[160];
                std::snprintf(
                    buf, sizeof(buf),
                    "predicted completion %.1f ms cannot meet "
                    "the %.1f ms deadline at queue load %zu",
                    predictedMs, deadlineMs, load);
                d.errorMessage = buf;
                d.retryAfterMs = hintLocked(load);
                return d;
            }
        }
    }
    return d;
}

void
AdmissionController::onEnqueue(std::uint64_t clientId)
{
    if (clientId == 0)
        return;
    std::lock_guard<std::mutex> lock(mtx);
    queuedByClient[clientId]++;
}

void
AdmissionController::onDequeue(std::uint64_t clientId)
{
    if (clientId == 0)
        return;
    std::lock_guard<std::mutex> lock(mtx);
    auto it = queuedByClient.find(clientId);
    if (it == queuedByClient.end())
        return;
    if (--it->second == 0)
        queuedByClient.erase(it);
}

void
AdmissionController::recordService(const std::string &serviceKey,
                                   double ms)
{
    if (!(ms >= 0.0))
        return;
    std::lock_guard<std::mutex> lock(mtx);
    double &e = ewmaMs[serviceKey];
    e = e == 0.0 ? ms : ewmaAlpha * ms + (1.0 - ewmaAlpha) * e;
    anyEwmaMs = anyEwmaMs == 0.0
        ? ms
        : ewmaAlpha * ms + (1.0 - ewmaAlpha) * anyEwmaMs;
}

double
AdmissionController::serviceTimeMs(
    const std::string &serviceKey) const
{
    std::lock_guard<std::mutex> lock(mtx);
    return knownEwmaLocked(serviceKey);
}

double
AdmissionController::retryHintMs(std::size_t load) const
{
    std::lock_guard<std::mutex> lock(mtx);
    return hintLocked(load);
}

std::uint64_t
AdmissionController::shedCount() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return shed;
}

} // namespace gpm
