/**
 * @file
 * Closed-loop NDJSON load generator for gpmd. It opens the workload's
 * Workload::conns() connections, each sending its next submit as soon
 * as the previous one is answered; request i carries the scenario of
 * key i. It speaks only the wire protocol and links nothing of the
 * program under test. One unmeasured warm-up second comes first, then
 * --seconds measured in one-second windows.
 *
 * Every response is checked: ok, never degraded and never "cached"
 * (every key is new). --digests receives "key digest" (FNV-1a of the
 * result) lines for a seeded sample of the responses, which the
 * replay recomputes. The last stdout line is a JSON summary.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "workload.hh"

namespace
{

using Clock = std::chrono::steady_clock;

struct Options
{
    int port = 0;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0.0;
    std::string digestsPath;
};

/** Unmeasured load before the timed windows [s]. */
constexpr double kWarmupSec = 1.0;
/** Served payloads of a timed load that the replay recomputes. */
constexpr std::size_t kSampleKeys = 24;

struct Sample
{
    double doneSec; ///< completion, seconds since the timed start
    float latencyMs;
};

/** What the connections observed. */
struct ConnResult
{
    std::vector<Sample> samples;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t cached = 0;
    std::uint64_t degraded = 0;
    std::map<std::string, std::uint64_t> errors;

    void merge(ConnResult &&o)
    {
        attempted += o.attempted;
        ok += o.ok;
        failed += o.failed;
        cached += o.cached;
        degraded += o.degraded;
        for (auto &[code, n] : o.errors)
            errors[code] += n;
        samples.insert(samples.end(), o.samples.begin(), o.samples.end());
        digests.insert(digests.end(), o.digests.begin(), o.digests.end());
    }
};

/** The load every connection shares. */
struct Load
{
    int port = 0;
    const perfbench::Workload *wl = nullptr;
    std::atomic<std::uint64_t> next{0};
    Clock::time_point start;  ///< timed windows start
    Clock::time_point stopAt; ///< last send
};

[[noreturn]] void
die(const char *msg)
{
    std::fprintf(stderr, "loadgen: %s\n", msg);
    std::exit(2);
}

/** The value of "result" in @p line (brace-matched, string-aware),
 *  or an empty view when absent. */
std::string_view
resultValue(std::string_view line)
{
    std::size_t at = line.find("\"result\":");
    if (at == std::string_view::npos)
        return {};
    std::size_t b = at + 9;
    int depth = 0;
    bool inStr = false;
    for (std::size_t i = b; i < line.size(); i++) {
        char c = line[i];
        if (inStr) {
            if (c == '\\')
                i++;
            else if (c == '"')
                inStr = false;
        } else if (c == '"') {
            inStr = true;
        } else if (c == '{' || c == '[') {
            depth++;
        } else if (c == '}' || c == ']') {
            if (--depth == 0)
                return line.substr(b, i + 1 - b);
        }
    }
    return {};
}

/** The number after "key": in the envelope head, or -1. gpmd echoes
 *  numeric ids in shortest round-trip form, so 10 comes back 1e+01. */
double
numberField(std::string_view head, std::string_view key)
{
    std::size_t at = head.find(key);
    if (at == std::string_view::npos)
        return -1;
    return std::strtod(head.data() + at + key.size(), nullptr);
}

int
connectTo(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_port = htons(static_cast<std::uint16_t>(port));
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&a), sizeof(a)) !=
        0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool
writeAll(int fd, const std::string &s)
{
    std::size_t off = 0;
    while (off < s.size()) {
        ssize_t n = ::send(fd, s.data() + off, s.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

void
runConnection(Load &ld, ConnResult &out)
{
    int fd = connectTo(ld.port);
    if (fd < 0) {
        out.errors["connect"]++;
        out.failed++;
        return;
    }
    // Send times of the requests awaiting an answer, by id (= key).
    std::unordered_map<std::uint64_t, Clock::time_point> inflight;
    std::string buf;
    char chunk[1 << 16];
    bool broken = false;

    // Sends request i; false when the load is over (or the write
    // failed, which leaves the request in flight to be failed below).
    auto sendNext = [&]() -> bool {
        if (Clock::now() >= ld.stopAt)
            return false;
        std::uint64_t i = ld.next.fetch_add(1);
        std::string line = "{\"id\":" + std::to_string(i) +
            ",\"verb\":\"submit\",\"scenario\":" +
            ld.wl->scenario(i) + "}\n";
        inflight[i] = Clock::now();
        out.attempted++;
        if (writeAll(fd, line))
            return true;
        broken = true;
        return false;
    };

    bool sending = sendNext();
    while (!broken && !inflight.empty()) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            broken = true;
            break;
        }
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t pos = 0;
        for (;;) {
            std::size_t nl = buf.find('\n', pos);
            if (nl == std::string::npos)
                break;
            std::string_view line(buf.data() + pos, nl - pos);
            pos = nl + 1;
            auto now = Clock::now();
            std::string_view res = resultValue(line);
            std::string_view head =
                res.empty() ? line
                            : line.substr(0, static_cast<std::size_t>(
                                                 res.data() - line.data()));
            double id = numberField(head, "\"id\":");
            auto it = id < 0 ? inflight.end()
                             : inflight.find(static_cast<std::uint64_t>(id));
            if (it == inflight.end()) {
                out.errors["unmatched_id"]++;
                broken = true;
                break;
            }
            std::uint64_t key = it->first;
            Clock::time_point sent = it->second;
            inflight.erase(it);
            if (head.find("\"ok\":true") == std::string_view::npos ||
                res.empty()) {
                std::size_t c = line.find("\"code\":\"");
                std::string code = c == std::string_view::npos
                    ? "malformed"
                    : std::string(line.substr(
                          c + 8, line.find('"', c + 8) - (c + 8)));
                out.errors[code]++;
                out.failed++;
            } else {
                out.ok++;
                if (head.find("\"degraded\":") != std::string_view::npos)
                    out.degraded++;
                if (head.find("\"cached\":true") != std::string_view::npos)
                    out.cached++;
                out.digests.emplace_back(
                    key, perfbench::fnv1a(res.data(), res.size()));
                double done =
                    std::chrono::duration<double>(now - ld.start).count();
                float lat = static_cast<float>(
                    std::chrono::duration<double, std::milli>(now - sent)
                        .count());
                out.samples.push_back({done, lat});
            }
            if (sending)
                sending = sendNext();
            if (broken)
                break;
        }
        buf.erase(0, pos);
    }
    if (broken && !inflight.empty()) {
        out.errors["connection"] += inflight.size();
        out.failed += inflight.size();
    }
    ::close(fd);
}

double
percentile(std::vector<float> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::size_t k = static_cast<std::size_t>(q * (v.size() - 1) + 0.5);
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[k];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            die(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--port")
            o.port = std::atoi(v.c_str());
        else if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (a == "--digests")
            o.digestsPath = v;
        else
            die(("unknown option " + a).c_str());
    }
    if (o.port <= 0 || !(o.seconds > 0.0) || o.digestsPath.empty())
        die("need --port, a positive --seconds and --digests");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    perfbench::Workload wl;
    if (!wl.init(opt.workload, opt.seed))
        die("unknown --workload");

    Load load;
    load.port = opt.port;
    load.wl = &wl;
    auto secs = [](double s) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(s));
    };
    load.start = Clock::now() + secs(kWarmupSec);
    load.stopAt = load.start + secs(opt.seconds);
    std::vector<ConnResult> results(wl.conns());
    {
        std::vector<std::thread> threads;
        for (auto &r : results)
            threads.emplace_back(runConnection, std::ref(load), std::ref(r));
        for (auto &t : threads)
            t.join();
    }
    ConnResult all;
    for (auto &r : results)
        all.merge(std::move(r));

    // A seeded sample of the payloads served.
    std::sort(all.digests.begin(), all.digests.end());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> checks;
    std::size_t stride =
        std::max<std::size_t>(1, all.digests.size() / kSampleKeys);
    std::size_t off = perfbench::splitmix64(opt.seed) % stride;
    for (std::size_t i = off;
         i < all.digests.size() && checks.size() < kSampleKeys; i += stride)
        checks.push_back(all.digests[i]);
    {
        std::ofstream out(opt.digestsPath);
        for (auto &[k, d] : checks) {
            char line[64];
            std::snprintf(line, sizeof(line), "%llu %016llx\n",
                          static_cast<unsigned long long>(k),
                          static_cast<unsigned long long>(d));
            out << line;
        }
    }

    // Per-second throughput and latency, reported as medians over the
    // windows so one stalled second does not move the figure.
    std::size_t windows = std::max<long long>(1, std::llround(opt.seconds));
    double w = opt.seconds / static_cast<double>(windows);
    std::vector<std::vector<float>> win(windows);
    std::uint64_t measured = 0;
    for (const Sample &s : all.samples) {
        if (s.doneSec < 0.0 || s.doneSec >= opt.seconds)
            continue;
        std::size_t k =
            std::min(windows - 1, static_cast<std::size_t>(s.doneSec / w));
        win[k].push_back(s.latencyMs);
        measured++;
    }
    std::vector<double> rps, p50, p99;
    for (auto &v : win) {
        rps.push_back(static_cast<double>(v.size()) / w);
        p50.push_back(percentile(v, 0.50));
        p99.push_back(percentile(v, 0.99));
    }

    std::printf("{\"attempted\":%llu,\"ok\":%llu,\"failed\":%llu,"
                "\"measured\":%llu,\"cached\":%llu,\"degraded\":%llu,"
                "\"checks\":%zu,\"rps\":%.17g,\"p50_ms\":%.17g,"
                "\"p99_ms\":%.17g,\"errors\":{",
                static_cast<unsigned long long>(all.attempted),
                static_cast<unsigned long long>(all.ok),
                static_cast<unsigned long long>(all.failed),
                static_cast<unsigned long long>(measured),
                static_cast<unsigned long long>(all.cached),
                static_cast<unsigned long long>(all.degraded),
                checks.size(), median(rps), median(p50), median(p99));
    bool first = true;
    for (auto &[code, n] : all.errors) {
        std::printf("%s\"%s\":%llu", first ? "" : ",", code.c_str(),
                    static_cast<unsigned long long>(n));
        first = false;
    }
    std::printf("}");
    auto series = [](const char *name, const std::vector<double> &v) {
        std::printf(",\"%s\":[", name);
        for (std::size_t k = 0; k < v.size(); k++)
            std::printf("%s%.17g", k ? "," : "", v[k]);
        std::printf("]");
    };
    series("windowRps", rps);
    series("windowP50", p50);
    series("windowP99", p99);
    std::printf("}\n");
    return 0;
}
