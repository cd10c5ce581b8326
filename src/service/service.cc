#include "service/service.hh"

#include <pthread.h>

#include <exception>
#include <future>
#include <stdexcept>
#include <utility>

#include "service/degrade.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace gpm
{

/** One queued request: the spec, its canonical text and hash, the
 *  completion callback, and the admission-time deadline expressed
 *  as a CancelToken the sweep engine polls between points. */
struct ScenarioService::Job
{
    ScenarioSpec spec;
    /** spec.canonicalText(), formatted once at admission and
     *  spliced into the payload. */
    std::string scenarioText;
    std::uint64_t hash = 0;
    bool hasDeadline = false;
    CancelToken cancel;
    Callback done;
    /** Fairness attribution (0 = exempt in-process caller). */
    std::uint64_t clientId = 0;
    /** Load was at/over the degrade threshold when admitted. */
    bool overloadAtAdmit = false;
    /** Nothing was queued or in flight when admitted. */
    bool idleAtAdmit = false;
    /** When the job was admitted — the deadline's epoch, used to
     *  compute remaining time at execution (CancelToken keeps its
     *  deadline private). */
    std::chrono::steady_clock::time_point admitTime;
};

ScenarioService::ScenarioService(ProfileLibrary &lib_,
                                 const DvfsTable &dvfs_,
                                 ServiceOptions opts_)
    : lib(lib_), dvfs(dvfs_), opts(std::move(opts_)),
      startTime(std::chrono::steady_clock::now())
{
    if (opts.workers == 0)
        opts.workers = 1;
    if (!opts.cacheDir.empty())
        disk = std::make_unique<DiskCache>(opts.cacheDir,
                                           opts.cacheDiskBytes,
                                           opts.resultBreaker);
    admission = std::make_unique<AdmissionController>(
        opts.admission, opts.queueCapacity, opts.workers);
    workers.reserve(opts.workers);
    for (std::size_t i = 0; i < opts.workers; i++) {
        workers.emplace_back(&ScenarioService::workerLoop, this);
        aliveWorkers++;
    }
}

ScenarioService::~ScenarioService() { drain(); }

ExperimentRunner &
ScenarioService::runnerFor(const ScenarioSpec &spec)
{
    std::string key = spec.simText();
    std::lock_guard<std::mutex> lock(runnersMtx);
    auto &slot = runners[key];
    if (!slot)
        slot = std::make_unique<ExperimentRunner>(
            lib, dvfs, spec.simConfig());
    return *slot;
}

bool
ScenarioService::cacheGet(std::uint64_t hash, std::string &payload,
                          bool &diskHit)
{
    diskHit = false;
    {
        std::lock_guard<std::mutex> lock(cacheMtx);
        auto it = cacheIndex.find(hash);
        if (it != cacheIndex.end()) {
            lru.splice(lru.begin(), lru, it->second);
            payload = it->second->second;
            return true;
        }
    }
    if (!disk || !disk->get(hash, payload))
        return false;
    diskHit = true;
    // Promote into the memory tier so the next hit skips the disk.
    // cachePut's write-through is a recency touch here — the entry
    // is already on disk byte-identical.
    cachePut(hash, payload);
    return true;
}

void
ScenarioService::cachePut(std::uint64_t hash,
                          const std::string &payload)
{
    std::pair<std::uint64_t, std::string> demoted;
    bool hasDemoted = false;
    if (opts.cacheCapacity != 0) {
        std::lock_guard<std::mutex> lock(cacheMtx);
        auto it = cacheIndex.find(hash);
        if (it != cacheIndex.end()) {
            lru.splice(lru.begin(), lru, it->second);
            it->second->second = payload;
        } else {
            lru.emplace_front(hash, payload);
            cacheIndex[hash] = lru.begin();
            if (lru.size() > opts.cacheCapacity) {
                demoted = std::move(lru.back());
                cacheIndex.erase(demoted.first);
                lru.pop_back();
                hasDemoted = true;
            }
        }
    }
    // Disk I/O happens outside cacheMtx — DiskCache locks itself.
    if (disk) {
        disk->put(hash, payload);
        // Demotion: the entry leaving memory was written through
        // when it was produced, so this is normally just a recency
        // bump keeping warm entries away from the disk LRU's tail.
        if (hasDemoted)
            disk->put(demoted.first, demoted.second);
    }
}

std::unique_ptr<ScenarioService::Job>
ScenarioService::makeJob(const ScenarioSpec &spec,
                         std::string scenarioText,
                         std::uint64_t hash, Callback done,
                         std::uint64_t clientId)
{
    auto job = std::make_unique<Job>();
    job->spec = spec;
    job->scenarioText = std::move(scenarioText);
    job->hash = hash;
    job->done = std::move(done);
    job->clientId = clientId;
    job->admitTime = std::chrono::steady_clock::now();
    if (spec.deadlineMs > 0.0) {
        job->hasDeadline = true;
        job->cancel.setDeadlineAfterMs(spec.deadlineMs);
    }
    return job;
}

std::string
ScenarioService::floorKeyFor(const ScenarioSpec &spec) const
{
    std::string policy = spec.policy;
    if (opts.degradeLadder && degrade::onLadder(policy))
        policy = "WaterFill"; // the ladder's bottom rung
    return AdmissionController::serviceKeyFor(
        policy, spec.cluster.has_value());
}

ScenarioService::Response
ScenarioService::submit(const ScenarioSpec &spec,
                        std::uint64_t clientId)
{
    std::promise<Response> done;
    std::future<Response> fut = done.get_future();
    submitAsync(
        spec,
        [&done](Response &&r) { done.set_value(std::move(r)); },
        clientId);
    return fut.get();
}

void
ScenarioService::submitAsync(const ScenarioSpec &spec,
                             Callback done, std::uint64_t clientId)
{
    Response r;
    if (auto err = validateScenario(spec)) {
        invalidCount++;
        r.errorCode = "invalid";
        r.errorMessage = std::move(*err);
        done(std::move(r));
        return;
    }
    std::string text = spec.canonicalText();
    r.hash = ScenarioSpec::hashOf(text);

    bool diskHit = false;
    if (cacheGet(r.hash, r.payload, diskHit)) {
        cacheHits++;
        if (diskHit)
            diskHits++;
        served++;
        r.ok = true;
        r.cacheHit = true;
        r.diskHit = diskHit;
        done(std::move(r));
        return;
    }

    auto job = makeJob(spec, std::move(text), r.hash, std::move(done),
                       clientId);
    Callback rejected; // fired outside the lock
    {
        std::lock_guard<std::mutex> lock(queueMtx);
        std::size_t load = queue.size() + inFlight.load();
        if (draining) {
            r.errorCode = "draining";
            r.errorMessage = "service is shutting down";
            rejected = std::move(job->done);
        } else if (queue.size() >= opts.queueCapacity) {
            rejectedBusy++;
            r.errorCode = "busy";
            r.errorMessage = "request queue is full, retry later";
            r.retryAfterMs = admission->retryHintMs(load);
            rejected = std::move(job->done);
        } else if (auto d = admission->preAdmit(
                       clientId,
                       AdmissionController::serviceKeyFor(
                           spec.policy, spec.cluster.has_value()),
                       floorKeyFor(spec), spec.deadlineMs, load);
                   !d.admit) {
            r.errorCode = std::move(d.errorCode);
            r.errorMessage = std::move(d.errorMessage);
            r.retryAfterMs = d.retryAfterMs;
            rejected = std::move(job->done);
        } else {
            job->overloadAtAdmit = d.overloaded;
            job->idleAtAdmit = load == 0;
            admission->onEnqueue(clientId);
            cacheMisses++;
            queue.push_back(std::move(job));
        }
    }
    if (rejected) {
        rejected(std::move(r));
        return;
    }
    queueCv.notify_one();
}

ScenarioSpec
ScenarioService::degradeDecision(const Job &job,
                                 std::string &reason) const
{
    reason.clear();
    if (!opts.degradeLadder || !degrade::onLadder(job.spec.policy))
        return job.spec;

    std::string target = job.spec.policy;
    // Overload at admission: one rung down unconditionally — the
    // whole queue is behind this request, shave where it is cheap.
    if (job.overloadAtAdmit) {
        if (auto next = degrade::nextRung(target)) {
            target = *next;
            reason = "overload";
        }
    }
    // Doomed deadline: keep descending while the EWMA of the
    // current candidate predictably blows the remaining time. Only
    // ever fires from observed completions — unknown solvers run
    // exact — and never for a request that found the service idle:
    // running the named policy is what corrects its estimate, as
    // the load-0 rule at admission.
    if (job.hasDeadline && !job.idleAtAdmit) {
        double elapsedMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - job.admitTime)
                .count();
        double remainingMs = job.spec.deadlineMs - elapsedMs;
        for (;;) {
            double per = admission->serviceTimeMs(
                AdmissionController::serviceKeyFor(
                    target, job.spec.cluster.has_value()));
            if (per <= 0.0 || per <= remainingMs)
                break;
            auto next = degrade::nextRung(target);
            if (!next)
                break;
            target = *next;
            reason = "deadline";
        }
    }
    return target == job.spec.policy ? job.spec
                                     : degradeSpec(job.spec, target);
}

ScenarioService::Response
ScenarioService::execute(Job &job)
{
    if (fault::armed())
        fault::maybeDelay(fault::Point::WorkerStall);
    if (fault::armed() && fault::fire(fault::Point::WorkerThrow))
        throw std::runtime_error(
            "injected fault: worker-throw");

    Response r;
    r.hash = job.hash;

    std::string reason;
    ScenarioSpec spec = degradeDecision(job, reason);
    std::string_view text = job.scenarioText;
    std::string degradedText;
    std::uint64_t payloadHash = job.hash;
    if (!reason.empty()) {
        // CACHE CORRECTNESS: the degraded payload lives under the
        // degraded spec's own hash and echoes its own text. The
        // submitted hash keeps addressing only the exact answer.
        degradedText = spec.canonicalText();
        text = degradedText;
        payloadHash = ScenarioSpec::hashOf(degradedText);
        r.degradedFrom = job.spec.policy;
        r.degradedTo = spec.policy;
        r.degradedReason = reason;
        degradedCount++;
        bool diskHit = false;
        if (cacheGet(payloadHash, r.payload, diskHit)) {
            served++;
            r.ok = true;
            r.cacheHit = true;
            r.diskHit = diskHit;
            return r;
        }
    }

    if (spec.cluster)
        return executeCluster(job, spec, text, payloadHash,
                              std::move(r));

    ExperimentRunner &runner = runnerFor(spec);
    auto swept = runner.trySweep(
        spec.sweepSpec(), opts.sweepConcurrency,
        job.hasDeadline ? &job.cancel : nullptr);
    if (!swept.ok()) {
        if (swept.error().cancelled) {
            // The deadline passed while the sweep was running; the
            // engine abandoned the remaining points and freed this
            // worker early.
            cancelledMidSweep++;
            r.errorCode = "deadline_exceeded";
            r.errorMessage = "deadline of " +
                std::to_string(job.spec.deadlineMs) +
                " ms expired mid-sweep: " + swept.error().message;
            return r;
        }
        // validateScenario() should have caught anything trySweep
        // rejects; if not, surface it rather than dying.
        r.errorCode = "invalid";
        r.errorMessage = "sweep point " +
            std::to_string(swept.error().pointIndex) + ": " +
            swept.error().message;
        return r;
    }
    r.payload = serializeResults(text, swept.value());
    cachePut(payloadHash, r.payload);
    served++;
    r.ok = true;
    return r;
}

ScenarioService::Response
ScenarioService::executeCluster(Job &job, const ScenarioSpec &spec,
                                std::string_view scenarioText,
                                std::uint64_t payloadHash,
                                Response r)
{
    clusterRequests++;

    ClusterManager mgr(lib, dvfs, spec.simConfig(),
                       spec.clusterSpec());
    std::vector<ClusterRunResult> runs;
    runs.reserve(spec.budgets.size());
    for (double b : spec.budgets) {
        auto run = mgr.run(b, opts.sweepConcurrency,
                           job.hasDeadline ? &job.cancel : nullptr);
        if (!run.ok()) {
            const ClusterError &e = run.error();
            if (e.cancelled) {
                cancelledMidSweep++;
                r.errorCode = "deadline_exceeded";
                r.errorMessage = "deadline of " +
                    std::to_string(job.spec.deadlineMs) +
                    " ms expired mid-run: " + e.message;
                return r;
            }
            // Structured containment: a failing chip sim is a
            // per-request error, not a worker crash — the worker
            // stays alive and nothing is cached.
            r.errorCode = "internal_error";
            r.errorMessage = e.chipIndex == ClusterError::npos
                ? "cluster: " + e.message
                : "cluster chip " + std::to_string(e.chipIndex) +
                    ": " + e.message;
            return r;
        }
        clusterEpochs += run.value().epochs.size();
        chipSims += run.value().chips.size();
        runs.push_back(std::move(run.value()));
    }
    r.payload = serializeClusterResults(spec, scenarioText, runs);
    cachePut(payloadHash, r.payload);
    served++;
    r.ok = true;
    return r;
}

void
ScenarioService::workerLoop()
{
    pthread_setname_np(pthread_self(), "gpm-worker");
    for (;;) {
        std::unique_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(queueMtx);
            queueCv.wait(lock, [&] {
                return draining || !queue.empty();
            });
            if (queue.empty()) {
                aliveWorkers--;
                return; // draining and nothing left
            }
            job = std::move(queue.front());
            queue.pop_front();
            // In flight before the lock drops: admission reads
            // queue.size() + inFlight under this lock, so the load
            // never dips while a job moves from queue to worker.
            inFlight++;
        }
        // What the request costs this worker, from the pop to the
        // completion callback's return, feeds admission's estimate.
        const auto popped = std::chrono::steady_clock::now();
        const std::uint64_t published = lib.publishedCount();
        // Frees the client's fairness slot whether the job runs,
        // sheds, or crashes.
        admission->onDequeue(job->clientId);

        // Deadline shed: the caller stopped caring — answer with a
        // structured error instead of burning a worker on it.
        if (job->hasDeadline && job->cancel.cancelled()) {
            inFlight--;
            shedDeadline++;
            Response r;
            r.hash = job->hash;
            r.errorCode = "deadline_exceeded";
            r.errorMessage = "deadline of " +
                std::to_string(job->spec.deadlineMs) +
                " ms expired before a worker was available";
            job->done(std::move(r));
            continue;
        }

        Response r;
        bool crashed = false;
        try {
            r = execute(*job);
        } catch (const std::exception &e) {
            crashed = true;
            r = Response{};
            r.hash = job->hash;
            r.errorCode = "internal_error";
            r.errorMessage =
                std::string("worker exception: ") + e.what();
        } catch (...) {
            crashed = true;
            r = Response{};
            r.hash = job->hash;
            r.errorCode = "internal_error";
            r.errorMessage = "worker exception of unknown type";
        }
        inFlight--;
        if (crashed) {
            // Counted before the response is published, so a caller
            // that just saw "internal_error" finds the crash in
            // stats(). The worker serves on: the exception unwound
            // its stack, and it keeps no other state of its own.
            workerCrashes++;
            warn("scenario worker crashed (contained): %s",
                 r.errorMessage.c_str());
        }
        // Feed the admission EWMAs from actual computations only (a
        // degraded-cache hit says nothing about the solver's cost),
        // keyed by the policy that served; the key is taken before
        // the response moves into the callback. A request during
        // which a profile was built or loaded timed that build, not
        // the policy, so it records nothing: after a cold-store
        // start its sample would sit thousands of times too high.
        std::string serviceKey;
        if (r.ok && !r.cacheHit && lib.publishedCount() == published)
            serviceKey = AdmissionController::serviceKeyFor(
                r.degradedTo.empty() ? job->spec.policy : r.degradedTo,
                job->spec.cluster.has_value());
        job->done(std::move(r));
        if (!serviceKey.empty())
            admission->recordService(
                serviceKey,
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - popped)
                    .count());
    }
}

ServiceStats
ScenarioService::stats() const
{
    ServiceStats s;
    s.served = served.load();
    s.cacheHits = cacheHits.load();
    s.cacheMisses = cacheMisses.load();
    s.rejectedBusy = rejectedBusy.load();
    s.invalid = invalidCount.load();
    s.shedDeadline = shedDeadline.load();
    s.workerCrashes = workerCrashes.load();
    s.diskHits = diskHits.load();
    s.cancelledMidSweep = cancelledMidSweep.load();
    s.clusterRequests = clusterRequests.load();
    s.clusterEpochs = clusterEpochs.load();
    s.chipSims = chipSims.load();
    s.workersAlive = aliveWorkers.load();
    s.inFlight = inFlight.load();
    {
        std::lock_guard<std::mutex> lock(queueMtx);
        s.queueDepth = queue.size();
    }
    {
        std::lock_guard<std::mutex> lock(cacheMtx);
        s.cacheSize = lru.size();
    }
    s.shedOverload = admission->shedCount();
    s.degradedRequests = degradedCount.load();
    if (disk) {
        DiskCacheStats d = disk->stats();
        s.diskEvictions = d.evictions;
        s.diskQuarantined = d.quarantined;
        s.diskWriteFailures = d.writeFailures;
        s.diskEntries = d.entries;
        s.diskBytes = d.bytes;
        s.diskBreakerRefusals = d.breakerRefusals;
        s.diskBreakerOpens = d.breakerOpens;
        s.diskBreakerState = d.breakerState;
    }
    {
        ProfileLibraryStats pl = lib.stats();
        s.profileBuilds = pl.builds;
        s.profileDiskHits = pl.diskHits;
        s.profileBuildMs = pl.buildMs;
        s.profileReady = pl.ready;
        s.profileQuarantined = pl.storeQuarantined;
        s.profileWriteFailures = pl.storeWriteFailures;
        s.profileBreakerRefusals = pl.storeBreakerRefusals;
        s.profileBreakerOpens = pl.storeBreakerOpens;
        s.profileBreakerState = pl.storeBreakerState;
    }
    s.uptimeSec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - startTime)
                      .count();
    std::uint64_t lookups = s.cacheHits + s.cacheMisses;
    s.cacheHitRate =
        lookups ? static_cast<double>(s.cacheHits) / lookups : 0.0;
    return s;
}

void
ScenarioService::drain()
{
    {
        std::lock_guard<std::mutex> lock(queueMtx);
        draining = true;
    }
    queueCv.notify_all();
    for (auto &w : workers)
        if (w.joinable())
            w.join();
}

} // namespace gpm
