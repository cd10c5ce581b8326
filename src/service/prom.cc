#include "service/prom.hh"

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace gpm
{

#ifndef GPM_BUILD_VERSION
#define GPM_BUILD_VERSION "unknown"
#endif
#ifndef GPM_BUILD_REVISION
#define GPM_BUILD_REVISION "unknown"
#endif

namespace
{

/** Append one HELP/TYPE/sample counter block to @p out. */
void
promCounter(std::string &out, const char *name, const char *help,
            std::uint64_t v)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "# HELP %s %s\n# TYPE %s counter\n%s %" PRIu64
                  "\n",
                  name, help, name, name, v);
    out += buf;
}

/** Append one HELP/TYPE/sample gauge block to @p out. */
void
promGauge(std::string &out, const char *name, const char *help,
          double v)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name,
                  help, name, name, v);
    out += buf;
}

/**
 * Append the gpm_build_info series: the idiomatic always-1 gauge
 * whose labels carry the build's version (git describe) and
 * revision, so dashboards can tell which replica runs what. Labels
 * come from the GPM_BUILD_VERSION / GPM_BUILD_REVISION compile
 * definitions ("unknown" outside a git checkout).
 */
void
promBuildInfo(std::string &out)
{
    out += "# HELP gpm_build_info Build version and revision as "
           "labels; value is always 1\n"
           "# TYPE gpm_build_info gauge\n"
           "gpm_build_info{version=\"" GPM_BUILD_VERSION
           "\",revision=\"" GPM_BUILD_REVISION "\"} 1\n";
}

void
breakerState(std::string &out, const char *breaker,
             const char *state)
{
    static const char *const kStates[] = {"closed", "open",
                                          "half-open"};
    char buf[128];
    for (const char *s : kStates) {
        std::snprintf(
            buf, sizeof(buf),
            "gpm_breaker_state{breaker=\"%s\",state=\"%s\"} %d\n",
            breaker, s, std::strcmp(s, state) == 0 ? 1 : 0);
        out += buf;
    }
}

} // namespace

std::string
renderPrometheus(const ServiceStats &s, const ReactorStats &r,
                 const ServerCounters &c)
{
    std::string out;
    out.reserve(8192);

    promBuildInfo(out);

    // ---- scenario service counters ----
    promCounter(out,"gpm_served_total",
            "Responses served with ok payloads", s.served);
    promCounter(out,"gpm_cache_hits_total",
            "Cache hits (memory or disk tier)", s.cacheHits);
    promCounter(out,"gpm_cache_misses_total",
            "Accepted requests that had to compute",
            s.cacheMisses);
    promCounter(out,"gpm_rejected_busy_total",
            "Requests rejected while the queue was full",
            s.rejectedBusy);
    promCounter(out,"gpm_invalid_total",
            "Requests that failed validation", s.invalid);
    promCounter(out,"gpm_shed_deadline_total",
            "Requests shed because their deadline expired",
            s.shedDeadline);
    promCounter(out,"gpm_worker_crashes_total",
            "Contained worker crashes", s.workerCrashes);
    promCounter(out,"gpm_disk_hits_total",
            "Disk-tier hits promoted to memory", s.diskHits);
    promCounter(out,"gpm_disk_evictions_total",
            "Disk-tier entries LRU-evicted", s.diskEvictions);
    promCounter(out,"gpm_disk_quarantined_total",
            "Corrupt disk entries quarantined",
            s.diskQuarantined);
    promCounter(out,"gpm_disk_write_failures_total",
            "Disk-tier writes that failed (entry not persisted)",
            s.diskWriteFailures);
    promCounter(out,"gpm_cancelled_mid_sweep_total",
            "Sweeps cancelled by a mid-flight deadline",
            s.cancelledMidSweep);
    promCounter(out,"gpm_cluster_requests_total",
            "Cluster scenarios computed", s.clusterRequests);
    promCounter(out,"gpm_cluster_epochs_total",
            "Facility epochs arbitrated", s.clusterEpochs);
    promCounter(out,"gpm_chip_sims_total",
            "Per-chip simulations run", s.chipSims);
    promCounter(out,"gpm_profile_builds_total",
            "Detailed-core profile suite builds",
            s.profileBuilds);
    promCounter(out,"gpm_profile_disk_hits_total",
            "Profiles loaded from the on-disk store",
            s.profileDiskHits);
    promCounter(out,"gpm_profile_build_ms_total",
            "Cumulative profile simulation time in ms",
            s.profileBuildMs);
    promCounter(out,"gpm_profile_quarantined_total",
            "Corrupt profile-store entries quarantined",
            s.profileQuarantined);
    promCounter(out,"gpm_profile_write_failures_total",
            "Profile-store writes that failed (rebuilt next start)",
            s.profileWriteFailures);
    promCounter(out,"gpm_shed_overload_total",
            "Requests shed by admission control",
            s.shedOverload);
    promCounter(out,"gpm_degraded_requests_total",
            "Requests served one or more rungs down",
            s.degradedRequests);
    promCounter(out,"gpm_disk_breaker_refusals_total",
            "Disk ops refused while the breaker was open",
            s.diskBreakerRefusals);
    promCounter(out,"gpm_disk_breaker_opens_total",
            "Disk breaker open events", s.diskBreakerOpens);
    promCounter(out,"gpm_profile_breaker_refusals_total",
            "Profile-store ops refused while the breaker was open",
            s.profileBreakerRefusals);
    promCounter(out,"gpm_profile_breaker_opens_total",
            "Profile-store breaker open events",
            s.profileBreakerOpens);

    // ---- scenario service gauges ----
    promGauge(out,"gpm_profile_ready",
          "Profiles currently ready to serve",
          static_cast<double>(s.profileReady));
    promGauge(out,"gpm_workers_alive", "Worker threads running",
          static_cast<double>(s.workersAlive));
    promGauge(out,"gpm_queue_depth", "Requests waiting right now",
          static_cast<double>(s.queueDepth));
    promGauge(out,"gpm_in_flight", "Requests being computed",
          static_cast<double>(s.inFlight));
    promGauge(out,"gpm_cache_size", "Memory-tier cache entries",
          static_cast<double>(s.cacheSize));
    promGauge(out,"gpm_disk_entries", "Disk-tier cache entries",
          static_cast<double>(s.diskEntries));
    promGauge(out,"gpm_disk_bytes", "Disk-tier tracked bytes",
          static_cast<double>(s.diskBytes));
    promGauge(out,"gpm_uptime_seconds", "Daemon uptime",
          s.uptimeSec);
    promGauge(out,"gpm_cache_hit_rate",
          "cacheHits / (cacheHits + cacheMisses)",
          s.cacheHitRate);

    out += "# HELP gpm_breaker_state Circuit breaker state "
           "(exactly one state sample per breaker is 1)\n"
           "# TYPE gpm_breaker_state gauge\n";
    breakerState(out, "disk", s.diskBreakerState);
    breakerState(out, "profile", s.profileBreakerState);

    // ---- server / reactor transport ----
    promCounter(out,"gpm_connections_total",
            "NDJSON connections accepted", c.connections);
    promCounter(out,"gpm_requests_total",
            "Request lines handled", c.requests);
    promCounter(out,"gpm_idle_reaped_total",
            "Connections reaped for idling", r.idleReaped);
    promCounter(out,"gpm_line_too_long_total",
            "Over-long lines answered with line_too_long",
            r.lineTooLong);
    promCounter(out,"gpm_epoll_wakeups_total",
            "epoll_wait returns across all reactors",
            r.epollWakeups);
    promCounter(out,"gpm_bytes_in_total",
            "Bytes received on data sockets", r.bytesIn);
    promCounter(out,"gpm_bytes_out_total",
            "Bytes written to data sockets", r.bytesOut);
    promCounter(out,"gpm_accept_sheds_total",
            "Connections shed under EMFILE/ENFILE via the spare "
            "fd",
            r.emfileSheds);
    promGauge(out,"gpm_open_connections",
          "Sockets currently open across all reactors",
          static_cast<double>(r.openConnections));
    promGauge(out,"gpm_ring_buffer_high_water",
          "Largest per-connection scan-buffer fill seen",
          static_cast<double>(r.ringHighWater));
    promGauge(out,"gpm_reactor_threads", "Reactor event loops",
          static_cast<double>(c.reactorThreads));
    return out;
}

} // namespace gpm
