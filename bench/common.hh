/**
 * @file
 * Shared environment for the per-figure benchmark harnesses.
 *
 * Every bench binary reproduces one table or figure of the paper
 * (see EXPERIMENTS.md for the index). They share one
 * content-addressed profile store so the expensive detailed-core
 * profiling runs once per (workload, DVFS table, scale); the store
 * directory defaults to ./gpm_profiles and can be moved with
 * GPM_PROFILE_CACHE_DIR. GPM_SCALE (default 1.0) scales workload
 * lengths for quick runs.
 */

#ifndef GPM_BENCH_COMMON_HH
#define GPM_BENCH_COMMON_HH

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "metrics/experiment.hh"
#include "trace/phase_profile.hh"
#include "trace/workload.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace gpm::bench
{

/** Workload length scale from @p var (@p fallback when unset or
 *  empty); a value that is not a finite number > 0 exits 1. */
inline double
scaleFromEnv(const char *var = "GPM_SCALE", double fallback = 1.0)
{
    const char *s = std::getenv(var);
    return s && *s ? scaleFlag(var, s) : fallback;
}

/** The whole of @p text as a count in [1, @p max] (the strict
 *  parseNumber() of the command-line flags), or exit 1 naming
 *  @p var. */
inline std::size_t
countValue(const char *var, const char *text, std::size_t max)
{
    auto v = parseNumber<std::size_t>(text);
    if (!v || *v < 1 || *v > max)
        fatal("%s: '%s' is not a count in [1, %zu]", var, text, max);
    return *v;
}

/** The count in @p var (@p fallback when unset or empty); a value
 *  that is not an integer in [1, @p max] exits 1 naming @p var. */
inline std::size_t
countFromEnv(const char *var, std::size_t fallback,
             std::size_t max = SIZE_MAX)
{
    const char *s = std::getenv(var);
    return s && *s ? countValue(var, s, max) : fallback;
}

/** The comma-separated counts in @p var (@p fallback when unset or
 *  empty), each read as countFromEnv() reads one. */
inline std::vector<std::size_t>
countsFromEnv(const char *var, const char *fallback,
              std::size_t max = SIZE_MAX)
{
    const char *s = std::getenv(var);
    std::string text = s && *s ? s : fallback;
    std::vector<std::size_t> out;
    std::size_t start = 0, comma;
    do {
        comma = text.find(',', start);
        out.push_back(countValue(
            var, text.substr(start, comma - start).c_str(), max));
        start = comma + 1;
    } while (comma != std::string::npos);
    return out;
}

/** The @p p quantile of an ascending-sorted sample, interpolated
 *  linearly between the two nearest ranks (0 when empty). */
inline double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    double idx = p * static_cast<double>(sorted.size() - 1);
    auto lo = static_cast<std::size_t>(idx);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    double f = idx - static_cast<double>(lo);
    return sorted[lo] * (1.0 - f) + sorted[hi] * f;
}

/**
 * Make every suite profile of @p lib Ready: attach the profile store
 * at GPM_PROFILE_CACHE_DIR (default ./gpm_profiles) and build what
 * it lacks. Entries are keyed by every profile input (scale and
 * DVFS table included), so one directory serves every bench.
 */
inline void
loadSuite(ProfileLibrary &lib)
{
    const char *dir = std::getenv("GPM_PROFILE_CACHE_DIR");
    lib.attachStore(dir && *dir ? dir : "gpm_profiles");
    lib.buildSuite();
}

/** Owns the DVFS table and the shared, disk-cached profiles. */
class Env
{
  public:
    Env()
        : dvfs(DvfsTable::classic3()), scale(scaleFromEnv()),
          lib(dvfs, scale)
    {
        loadSuite(lib);
    }

    /** An experiment runner over the shared library. */
    ExperimentRunner
    runner(SimConfig cfg = SimConfig{})
    {
        return ExperimentRunner(lib, dvfs, cfg);
    }

    DvfsTable dvfs;
    double scale;
    ProfileLibrary lib;
};

/**
 * The harnesses' sweep entry point: ExperimentRunner::trySweep with
 * its structured error surfaced as one actionable fatal() — the
 * offending point index and reason — instead of a fatal() firing
 * deep inside a simulation thread with no spec context.
 */
inline std::vector<PolicyEval>
sweepChecked(ExperimentRunner &runner, const SweepSpec &spec,
             std::size_t threads = 0)
{
    auto r = runner.trySweep(spec, threads);
    if (!r.ok())
        fatal("sweep spec rejected at point %zu: %s",
              r.error().pointIndex, r.error().message.c_str());
    return std::move(r.value());
}

/** The budget sweep used throughout the evaluation figures. */
inline std::vector<double>
standardBudgets()
{
    return {0.625, 0.70, 0.775, 0.85, 0.925, 1.0};
}

/**
 * When GPM_CSV_DIR is set, write @p t as <dir>/<name>.csv so the
 * figure series can be re-plotted; silently does nothing otherwise.
 */
inline void
maybeCsv(const std::string &name, const Table &t)
{
    const char *dir = std::getenv("GPM_CSV_DIR");
    if (!dir)
        return;
    std::string path = std::string(dir) + "/" + name + ".csv";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write %s", path.c_str());
        return;
    }
    std::fputs(t.csv().c_str(), f);
    std::fclose(f);
}

/** Print a figure/table banner. */
inline void
banner(const char *what, const char *detail)
{
    std::printf("\n=== %s ===\n%s\n\n", what, detail);
}

/** Simple wall-clock stopwatch. */
class WallTimer
{
  public:
    WallTimer() : t0(std::chrono::steady_clock::now()) {}

    /** Milliseconds since construction. */
    double ms() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point t0;
};

/**
 * Append one complete NDJSON record (a one-line JSON object, no
 * trailing newline) to the bench log (BENCH_sweep.json, overridable
 * with GPM_BENCH_JSON) as a single O_APPEND write, so concurrent
 * bench runs and interrupted processes can never interleave bytes
 * within a record or truncate earlier ones.
 */
inline void
appendBenchLine(std::string record)
{
    const char *p = std::getenv("GPM_BENCH_JSON");
    std::string path = p ? p : "BENCH_sweep.json";
    record += '\n';

    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                    0644);
    if (fd < 0) {
        warn("cannot write %s", path.c_str());
        return;
    }
    // One write per record (well under PIPE_BUF): appends from
    // concurrent processes land whole, in some order.
    const char *data = record.c_str();
    std::size_t left = record.size();
    while (left > 0) {
        ssize_t wrote = ::write(fd, data, left);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            warn("short write to %s", path.c_str());
            break;
        }
        data += wrote;
        left -= static_cast<std::size_t>(wrote);
    }
    ::close(fd);
}

/**
 * Append one measurement to the machine-readable sweep-performance
 * log so the perf trajectory is tracked across revisions. The file
 * (BENCH_sweep.json, overridable with GPM_BENCH_JSON) is NDJSON —
 * one record per line:
 *
 *   { "bench": ..., "points": N, "threads": T, "host_cores": C,
 *     "scale": S, "serial_ms": ... | null, "parallel_ms": ...,
 *     "speedup": ... | null }
 *
 * serial_ms/speedup are null for benches that only measure the
 * parallel engine. Pass serial_ms <= 0 to mean "not measured".
 */
inline void
appendSweepJson(const std::string &bench, std::size_t points,
                std::size_t threads, double serial_ms,
                double parallel_ms)
{
    std::string entry = "{ \"bench\": \"" + bench + "\"";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ", \"points\": %zu, \"threads\": %zu, "
                  "\"host_cores\": %u, \"scale\": %g",
                  points, threads,
                  std::thread::hardware_concurrency(),
                  scaleFromEnv());
    entry += buf;
    if (serial_ms > 0.0) {
        std::snprintf(buf, sizeof(buf),
                      ", \"serial_ms\": %.1f, \"parallel_ms\": %.1f, "
                      "\"speedup\": %.2f }",
                      serial_ms, parallel_ms,
                      parallel_ms > 0.0 ? serial_ms / parallel_ms
                                        : 0.0);
    } else {
        std::snprintf(buf, sizeof(buf),
                      ", \"serial_ms\": null, \"parallel_ms\": %.1f, "
                      "\"speedup\": null }",
                      parallel_ms);
    }
    entry += buf;
    appendBenchLine(std::move(entry));
}

} // namespace gpm::bench

#endif // GPM_BENCH_COMMON_HH
