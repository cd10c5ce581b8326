/**
 * @file
 * Prometheus text exposition for gpmd's /metrics endpoint: every
 * ServiceStats field plus the reactor transport gauges, rendered in
 * the text/plain; version=0.0.4 format scrapers expect. Kept apart
 * from server.cc so the rendering is unit-testable without a
 * socket.
 *
 * Naming: gpm_<noun>_total for monotonic counters, gpm_<noun> for
 * gauges. Circuit-breaker states are exposed as one labeled gauge,
 * gpm_breaker_state{breaker="disk",state="closed"} 1, with exactly
 * one sample per breaker set to 1 — the idiomatic enum encoding.
 */

#ifndef GPM_SERVICE_PROM_HH
#define GPM_SERVICE_PROM_HH

#include <cstdint>
#include <string>

#include "service/reactor.hh"
#include "service/service.hh"

namespace gpm
{

/** Render the full /metrics body (no HTTP framing); @p requests
 *  is GpmServer's count of request lines handled. */
std::string renderPrometheus(const ServiceStats &svc,
                             const ReactorStats &reactor,
                             std::uint64_t requests);

} // namespace gpm

#endif // GPM_SERVICE_PROM_HH
