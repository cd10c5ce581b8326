/**
 * @file
 * ScenarioService — the runtime between the transport (gpmd) and
 * the sweep engine. Owns the ExperimentRunners (one per distinct
 * sim-knob configuration, built lazily over one shared
 * ProfileLibrary), a bounded FIFO request queue drained by a fixed
 * set of worker threads, and a two-tier result cache keyed by the
 * canonical scenario hash: an in-memory LRU of payload strings in
 * front of an optional persistent DiskCache (see disk_cache.hh).
 *
 * Cache hierarchy: lookups go memory → disk; a disk hit is promoted
 * into memory, and a payload demoted out of the memory LRU remains
 * on disk (computed payloads are written through), so the working
 * set survives restarts and daemons sharing one --cache-dir share
 * one corpus. Payloads are canonical JSON and deterministic per
 * hash, so every tier serves the same bytes a direct sweep would.
 *
 * Submission paths:
 *  - submit() — blocking: validate, serve from cache when possible,
 *    otherwise queue and wait. Rejected immediately with "busy" when
 *    the queue holds queueCapacity requests (high-water-mark
 *    admission; capacity 0 rejects every miss).
 *  - submitAsync() — same pipeline, but the caller passes a
 *    completion callback instead of blocking; cache hits and
 *    rejections invoke it synchronously, computed results invoke it
 *    from a worker thread. This is what lets one connection keep
 *    many scenarios in flight (pipelined submits), each admitted,
 *    rejected or served on its own.
 *
 * Robustness (see docs/ROBUSTNESS.md):
 *  - Deadlines: a spec may carry deadlineMs. A queued request whose
 *    deadline expires before a worker pops it is shed with
 *    "deadline_exceeded"; one that expires *mid-computation* is
 *    cancelled cooperatively between sweep points (CancelToken
 *    through ExperimentRunner::trySweep), freeing the worker without
 *    waiting for the full sweep.
 *  - Crash containment: any exception thrown during sweep execution
 *    becomes a structured "internal_error" response, and the worker
 *    keeps serving: the exception has unwound its stack, and a
 *    worker keeps no other state of its own, so the worker count
 *    survives arbitrarily many crashes.
 *  - Adaptive admission (admission.hh): beneath the binary "busy"
 *    high-water mark, per-policy service-time EWMAs shed requests
 *    whose deadline cannot be met even by the cheapest ladder rung
 *    ("rejected_overload" + retryAfterMs hint), and per-client
 *    fairness keeps one pipelined connection from occupying the
 *    whole queue.
 *  - Degradation ladder (degrade.hh): a request admitted while the
 *    service is overloaded, or whose remaining deadline the current
 *    solver's EWMA cannot meet (unless it found the service idle:
 *    then its run is what corrects that EWMA), is served by the
 *    next-cheaper solver on the ladder. Degraded payloads are
 *    computed and cached under the DEGRADED spec's hash — never
 *    under the original hash, which must stay bitwise-reserved for
 *    the exact answer — and the response carries {from, to,
 *    reason}.
 *  - Circuit breakers (breaker.hh): the disk result cache wraps its
 *    read path in a breaker, so persistent I/O faults collapse to
 *    memory-only serving instead of a per-request disk penalty.
 */

#ifndef GPM_SERVICE_SERVICE_HH
#define GPM_SERVICE_SERVICE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/admission.hh"
#include "service/disk_cache.hh"
#include "service/scenario.hh"
#include "util/cancel.hh"

namespace gpm
{

/** ScenarioService tuning knobs. */
struct ServiceOptions
{
    /** Worker threads draining the request queue. */
    std::size_t workers = 2;
    /** Queue high-water mark; submits beyond it are rejected with
     *  "busy". 0 rejects every cache miss. */
    std::size_t queueCapacity = 64;
    /** In-memory LRU result-cache capacity in entries (0 disables
     *  the memory tier). */
    std::size_t cacheCapacity = 128;
    /** Threads one request's sweep uses from the process-wide pool
     *  (ExperimentRunner::sweep concurrency, calling worker
     *  included); 0 = GPM_THREADS / hardware concurrency. */
    std::size_t sweepConcurrency = 0;
    /** Persistent cache directory; empty disables the disk tier. */
    std::string cacheDir;
    /** Disk-tier LRU byte budget (0 = unbounded). */
    std::uint64_t cacheDiskBytes = 64ull << 20;
    /** Adaptive admission control tuning (see admission.hh). */
    AdmissionOptions admission;
    /** Substitute cheaper ladder solvers under overload / doomed
     *  deadlines (see degrade.hh). Off = exact answers or nothing. */
    bool degradeLadder = true;
    /** Disk result-cache read-path circuit breaker tuning. */
    BreakerOptions resultBreaker;
};

/** A stats() snapshot (all counters since construction). */
struct ServiceStats
{
    std::uint64_t served = 0;      ///< responses with ok payloads
    std::uint64_t cacheHits = 0;   ///< either tier
    std::uint64_t cacheMisses = 0; ///< accepted, computed requests
    std::uint64_t rejectedBusy = 0;
    std::uint64_t invalid = 0;     ///< failed validation
    std::uint64_t shedDeadline = 0;  ///< shed, deadline expired
    std::uint64_t workerCrashes = 0; ///< contained worker throws
    std::uint64_t diskHits = 0;      ///< hits promoted disk→memory
    std::uint64_t diskEvictions = 0; ///< disk entries LRU-evicted
    std::uint64_t diskQuarantined = 0; ///< corrupt entries set aside
    std::uint64_t diskWriteFailures = 0; ///< write-throughs not persisted
    std::uint64_t cancelledMidSweep = 0; ///< deadlines hit mid-sweep
    std::uint64_t clusterRequests = 0; ///< cluster scenarios computed
    std::uint64_t clusterEpochs = 0;   ///< facility epochs arbitrated
    std::uint64_t chipSims = 0;        ///< per-chip simulations run
    std::uint64_t profileBuilds = 0;   ///< detailed-core suite builds
    std::uint64_t profileDiskHits = 0; ///< profiles loaded from disk
    std::uint64_t profileBuildMs = 0;  ///< cumulative sim time [ms]
    std::uint64_t profileReady = 0;    ///< profiles ready to serve
    std::uint64_t profileQuarantined = 0; ///< corrupt store entries
    std::uint64_t profileWriteFailures = 0; ///< profiles not persisted
    std::uint64_t shedOverload = 0; ///< shed by admission control
    std::uint64_t degradedRequests = 0; ///< served a rung down
    std::uint64_t diskBreakerRefusals = 0; ///< ops skipped while open
    std::uint64_t diskBreakerOpens = 0; ///< disk breaker open events
    std::uint64_t profileBreakerRefusals = 0;
    std::uint64_t profileBreakerOpens = 0;
    const char *diskBreakerState = "closed";
    const char *profileBreakerState = "closed";
    std::size_t workersAlive = 0;  ///< workers currently running
    std::size_t queueDepth = 0;    ///< requests waiting right now
    std::size_t inFlight = 0;      ///< requests being computed
    std::size_t cacheSize = 0;     ///< memory-tier entries
    std::size_t diskEntries = 0;   ///< disk-tier entries
    std::uint64_t diskBytes = 0;   ///< disk-tier tracked bytes
    double uptimeSec = 0.0;
    /** cacheHits / (cacheHits + cacheMisses), 0 when unserved. */
    double cacheHitRate = 0.0;
};

class ScenarioService
{
  public:
    /** One scenario's outcome. */
    struct Response
    {
        bool ok = false;
        /** "invalid" | "busy" | "draining" | "parse" |
         *  "deadline_exceeded" | "rejected_overload" |
         *  "internal_error" when !ok. */
        std::string errorCode;
        std::string errorMessage;
        /** Canonical result payload (see serializeResults). */
        std::string payload;
        bool cacheHit = false;
        /** The hit was served from the disk tier (implies
         *  cacheHit). */
        bool diskHit = false;
        /** The hash of the SUBMITTED spec — the client's matching
         *  key — even when the payload was served degraded (the
         *  degraded payload is cached under its own spec's hash,
         *  never under this one). */
        std::uint64_t hash = 0;
        /** Non-empty when the ladder substituted a cheaper solver:
         *  the requested policy, the one that served, and why
         *  ("overload" | "deadline"). */
        std::string degradedFrom;
        std::string degradedTo;
        std::string degradedReason;
        /** Backoff floor hint on "busy"/"rejected_overload" [ms];
         *  0 = none. */
        double retryAfterMs = 0.0;
    };

    /** Completion callback: invoked exactly once per scenario,
     *  either synchronously from the submitting thread (cache hit,
     *  rejection) or later from a worker thread. */
    using Callback = std::function<void(Response &&)>;

    ScenarioService(ProfileLibrary &lib, const DvfsTable &dvfs,
                    ServiceOptions opts = ServiceOptions{});

    /** Drains outstanding work, then joins the workers. */
    ~ScenarioService();

    ScenarioService(const ScenarioService &) = delete;
    ScenarioService &operator=(const ScenarioService &) = delete;

    /**
     * Validate, then serve @p spec: from cache when possible,
     * otherwise through the queue (blocking until computed) unless
     * the high-water mark or admission control rejects it.
     * @p clientId attributes the request for per-client fairness;
     * 0 (in-process callers) is exempt.
     */
    Response submit(const ScenarioSpec &spec,
                    std::uint64_t clientId = 0);

    /**
     * submit() without blocking: @p done fires exactly once with
     * the outcome — synchronously (before submitAsync returns) for
     * validation errors, cache hits and rejections, from a worker
     * thread for computed results. The callback must be safe to
     * invoke from either context and must not call back into
     * drain().
     */
    void submitAsync(const ScenarioSpec &spec, Callback done,
                     std::uint64_t clientId = 0);

    /** Count one request rejected as "invalid" before it reached
     *  the service (gpmd's request and scenario checks), so stats
     *  and /metrics see every invalid request. */
    void countInvalid() { invalidCount++; }

    /** Counters snapshot. */
    ServiceStats stats() const;

    /**
     * Stop accepting new work ("draining" rejections), finish what
     * is queued, and join the workers. Idempotent.
     */
    void drain();

    const ServiceOptions &options() const { return opts; }

    /** The admission controller (tests prime its EWMAs). */
    AdmissionController &admissionController()
    {
        return *admission;
    }

  private:
    struct Job;

    ExperimentRunner &runnerFor(const ScenarioSpec &spec);
    Response execute(Job &job);
    /** Cluster-scenario half of execute(): ClusterManager runs, one
     *  per budget fraction over @p spec (the possibly-degraded
     *  spec; @p scenarioText is its canonical text, @p payloadHash
     *  its cache key, @p r carries the hash and degradation fields
     *  already filled in). Chip-sim failures come back as
     *  structured "internal_error" responses — the worker survives
     *  (workerCrashes stays untouched). */
    Response executeCluster(Job &job, const ScenarioSpec &spec,
                            std::string_view scenarioText,
                            std::uint64_t payloadHash, Response r);
    /** The degradation-ladder decision for @p job: the spec to
     *  actually run (== job.spec when not degrading) and why. */
    ScenarioSpec degradeDecision(const Job &job,
                                 std::string &reason) const;
    /** The EWMA key of the cheapest solver @p spec could degrade
     *  to (its own key when the ladder does not apply). */
    std::string floorKeyFor(const ScenarioSpec &spec) const;
    void workerLoop();
    std::unique_ptr<Job> makeJob(const ScenarioSpec &spec,
                                 std::string scenarioText,
                                 std::uint64_t hash, Callback done,
                                 std::uint64_t clientId);
    /** Two-tier lookup: memory, then disk (promoting the hit).
     *  Counts nothing — callers own the stats. */
    bool cacheGet(std::uint64_t hash, std::string &payload,
                  bool &diskHit);
    /** Insert into the memory tier and write through to disk; a
     *  payload the insert demotes keeps its disk entry fresh. */
    void cachePut(std::uint64_t hash, const std::string &payload);

    ProfileLibrary &lib;
    const DvfsTable &dvfs;
    ServiceOptions opts;
    std::chrono::steady_clock::time_point startTime;

    /** One runner per distinct sim-knob configuration. */
    std::mutex runnersMtx;
    std::map<std::string, std::unique_ptr<ExperimentRunner>>
        runners;

    /** Bounded request queue + workers. */
    mutable std::mutex queueMtx;
    std::condition_variable queueCv;
    std::deque<std::unique_ptr<Job>> queue;
    bool draining = false;
    std::vector<std::thread> workers;

    /** Memory tier: recency list + hash index into it. */
    mutable std::mutex cacheMtx;
    std::list<std::pair<std::uint64_t, std::string>> lru;
    std::unordered_map<
        std::uint64_t,
        std::list<std::pair<std::uint64_t, std::string>>::iterator>
        cacheIndex;

    /** Disk tier (null when opts.cacheDir is empty). Internally
     *  locked; never touched while holding cacheMtx. */
    std::unique_ptr<DiskCache> disk;

    /** Adaptive admission control (always constructed; a disabled
     *  one admits everything). Internally locked; called under
     *  queueMtx — it never calls back out. */
    std::unique_ptr<AdmissionController> admission;

    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> cacheHits{0};
    std::atomic<std::uint64_t> cacheMisses{0};
    std::atomic<std::uint64_t> rejectedBusy{0};
    std::atomic<std::uint64_t> invalidCount{0};
    std::atomic<std::uint64_t> shedDeadline{0};
    std::atomic<std::uint64_t> workerCrashes{0};
    std::atomic<std::uint64_t> diskHits{0};
    std::atomic<std::uint64_t> cancelledMidSweep{0};
    std::atomic<std::uint64_t> clusterRequests{0};
    std::atomic<std::uint64_t> clusterEpochs{0};
    std::atomic<std::uint64_t> chipSims{0};
    std::atomic<std::uint64_t> degradedCount{0};
    std::atomic<std::size_t> aliveWorkers{0};
    std::atomic<std::size_t> inFlight{0};
};

} // namespace gpm

#endif // GPM_SERVICE_SERVICE_HH
