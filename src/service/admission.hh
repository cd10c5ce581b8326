/**
 * @file
 * AdmissionController — the adaptive load controller in front of
 * the scenario queue. The binary high-water mark ("busy" at
 * queueCapacity) stays as the hard bound; this layer adds three
 * graded signals beneath it:
 *
 *  - Doomed-deadline shedding: per-policy EWMAs of observed service
 *    time predict a request's completion (queue wait + its own
 *    service); a request whose deadline cannot survive even the
 *    cheapest solver the degradation ladder could substitute is
 *    shed AT ADMISSION with a structured `rejected_overload` and a
 *    `retryAfterMs` hint, instead of burning queue space on an
 *    answer nobody will wait for. Prediction only ever fires from
 *    observed completions — a cold service admits everything — and
 *    never at load 0: a request with nothing queued or in flight
 *    starts at once, and running it is the only way a wrong
 *    estimate gets corrected.
 *
 *  - Per-client fairness: one pipelined connection may hold at most
 *    half of the queue; entries beyond that are rejected
 *    `rejected_overload` so a flooding client throttles itself
 *    while others keep being admitted. Client 0 (in-process
 *    callers: tests, benches, embedding code) is exempt.
 *
 *  - Overload marking: when queued + in-flight work reaches
 *    `degradeDepth` of capacity the service is "overloaded";
 *    requests admitted in that state are flagged so execution can
 *    step exact solvers down the degradation ladder (degrade.hh).
 *
 * Thread-safety: all methods are safe from any thread (one internal
 * mutex). The service calls preAdmit()/onEnqueue() under its queue
 * lock — the controller never calls back out, so the lock order is
 * trivially acyclic.
 */

#ifndef GPM_SERVICE_ADMISSION_HH
#define GPM_SERVICE_ADMISSION_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace gpm
{

/** AdmissionController tuning knobs (ServiceOptions::admission). */
struct AdmissionOptions
{
    /** Master switch; off = binary high-water admission only. */
    bool enabled = true;
    /** Fraction of queueCapacity at/over which (counting in-flight
     *  work) the service is in the overload state: admitted
     *  ladder-eligible requests degrade and retry hints grow. */
    double degradeDepth = 0.75;
};

class AdmissionController
{
  public:
    /** preAdmit()'s verdict. */
    struct Decision
    {
        bool admit = true;
        /** Load was at/over the degrade threshold at admission —
         *  execution may step down the ladder. */
        bool overloaded = false;
        /** "rejected_overload" when !admit. */
        std::string errorCode;
        std::string errorMessage;
        /** Backoff floor hint for the client [ms]; also attached
         *  to hard "busy" rejections via retryHintMs(). */
        double retryAfterMs = 0.0;
    };

    AdmissionController(AdmissionOptions opts,
                        std::size_t queueCapacity,
                        std::size_t workers);

    /**
     * Gate one request. @p load is queued + in-flight work sampled
     * by the caller (under its queue lock); @p serviceKey is the
     * EWMA key (see serviceKeyFor); @p floorKey is the EWMA key of
     * the cheapest solver execution could degrade to (equal to
     * @p serviceKey when the ladder does not apply); @p deadlineMs
     * 0 means none.
     */
    Decision preAdmit(std::uint64_t clientId,
                      const std::string &serviceKey,
                      const std::string &floorKey,
                      double deadlineMs, std::size_t load);

    /** The request was enqueued; holds a fairness slot until
     *  onDequeue(). */
    void onEnqueue(std::uint64_t clientId);
    /** A worker popped (or shed) the client's request. */
    void onDequeue(std::uint64_t clientId);

    /** Feed an observed service time into @p serviceKey's EWMA. */
    void recordService(const std::string &serviceKey, double ms);

    /** Current EWMA for @p serviceKey [ms]; 0 = never observed. */
    double serviceTimeMs(const std::string &serviceKey) const;

    /** The retryAfterMs hint for the current @p load — also used
     *  for hard "busy" rejections. Clamped to [10, 5000] ms. */
    double retryHintMs(std::size_t load) const;

    /** Requests rejected `rejected_overload` (fairness + doomed
     *  deadlines). */
    std::uint64_t shedCount() const;

    /** The EWMA key for a request: its policy name, prefixed for
     *  cluster scenarios — facility arbitration and flat sweeps
     *  have very different service times under the same kernel. */
    static std::string serviceKeyFor(const std::string &policy,
                                     bool cluster);

  private:
    double knownEwmaLocked(const std::string &key) const;
    double hintLocked(std::size_t load) const;

    AdmissionOptions opts;
    std::size_t capacity;
    std::size_t workers;
    /** max(1, floor(kFairShare * capacity)): one client's cap. */
    std::size_t clientShare;
    /** ceil(degradeDepth * capacity): the overload threshold. */
    std::size_t degradeAt;

    mutable std::mutex mtx;
    std::unordered_map<std::string, double> ewmaMs;
    /** Mean observed service time across all keys (retry hints
     *  before a specific policy has history). */
    double anyEwmaMs = 0.0;
    std::unordered_map<std::uint64_t, std::size_t> queuedByClient;
    std::uint64_t shed = 0;
};

} // namespace gpm

#endif // GPM_SERVICE_ADMISSION_HH
