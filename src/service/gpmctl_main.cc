/**
 * @file
 * gpmctl — command-line client for gpmd.
 *
 *   gpmctl [--host H] [--port P] [retry options] ping
 *   gpmctl [--host H] [--port P] [retry options] stats
 *   gpmctl [--host H] [--port P] [retry options] shutdown
 *   gpmctl [--host H] [--port P] [retry options] submit \
 *       --json '<scenario object>'
 *   gpmctl [--host H] [--port P] [retry options] submit-batch \
 *       @FILE.ndjson
 *
 * submit sends the scenario object it is given as is: flat and
 * cluster scenarios, sim knobs and the scenario's own "deadlineMs"
 * are all fields of that object, whose schema parseScenario defines
 * (docs/SERVICE.md), so gpmctl sends every scenario gpmd accepts.
 *
 * --host takes a comma-separated HOST[:PORT] list, and gpmctl
 * shards over it itself: a submit goes to the endpoint that owns the
 * scenario's canonical hash on a RendezvousRing over the "host:port"
 * names, so a scenario always lands on the daemon whose memory tier
 * holds it, and each retried failure moves to the next endpoint in
 * that hash's ranking. A scenario that does not parse, and
 * ping/stats/shutdown, start at the first endpoint and move down
 * the list.
 *
 * submit-batch reads one scenario object per line from FILE and
 * sends each as a pipelined submit whose "id" is its input-file
 * position. The scenarios are grouped by owning endpoint (input
 * order kept within each group), and each group goes out in windows
 * of at most --max-inflight scenarios (0 = the whole group), one
 * connection per window. Each scenario's submit response line is
 * printed on stdout in input order, whatever order the daemons
 * answered in. Exit 0 only when every scenario succeeded. A retry
 * (below) re-sends only the window's scenarios that are not settled
 * yet — answered with a transient code, or not answered at all — so
 * no line is ever printed twice, and a file larger than one
 * client's share of a daemon's queue finishes under --retries
 * instead of being refused whole.
 *
 * Retry options (see docs/ROBUSTNESS.md): --retries N (additional
 * attempts after the first, default 0), --retry-base-ms B (backoff
 * scale, default 50), --deadline MS (overall wall-clock budget
 * across all attempts, 0 = none), --timeout-ms T (per-attempt
 * response timeout, 0 = none), --seed S (backoff jitter seed,
 * default 1 — same seed, same delays). Retries fire on connect
 * failure, transport failure/timeout, and transient "busy" /
 * "rejected_overload" / "internal_error" responses, with
 * exponential backoff and jitter, all bounded by --deadline. A
 * --deadline by itself funds retries past the --retries count (so
 * a connection refused while the daemon is still starting keeps
 * backing off until the budget runs out, instead of dying on the
 * first attempt). A rejection carrying "retryAfterMs" raises the
 * next delay to at least that hint — the server knows its own
 * drain rate.
 *
 * Prints the server's one-line JSON response on stdout. Exit codes:
 * 0 = ok:true, 2 = server returned an error, 1 = usage (including
 * a malformed numeric flag, an unknown option and a submit without
 * --json) or transport failure (including deadline exhaustion).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/json.hh"
#include "service/net.hh"
#include "service/ring.hh"
#include "service/scenario.hh"
#include "util/backoff.hh"
#include "util/flags.hh"

namespace
{

using gpm::json::Value;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: gpmctl [--host H[,H2[:P2],...]] [--port P] "
        "[retry options]\n"
        "  <ping | stats | shutdown | submit --json SCENARIO | "
        "submit-batch @FILE.ndjson>\n"
        "  --host takes a comma-separated HOST[:PORT] list; a "
        "submit goes to the\n"
        "  endpoint owning its scenario and retries move down "
        "that scenario's\n"
        "  ranking; other verbs start at the first endpoint "
        "(entries without\n"
        "  :PORT use --port)\n"
        "  SCENARIO is one scenario object (docs/SERVICE.md), e.g.\n"
        "  '{\"combo\":[\"mcf\",\"crafty\"],\"policy\":"
        "\"MaxBIPS\",\"budget\":0.8}'\n"
        "retry options: [--retries N] [--retry-base-ms B] "
        "[--deadline MS]\n"
        "  [--timeout-ms T] [--seed S] [--max-inflight N]\n");
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "gpmctl: %s\n", msg.c_str());
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 7421;
    std::string command;

    struct Endpoint
    {
        std::string host;
        std::uint16_t port;
    };
    std::vector<Endpoint> endpoints;

    // The scenario object for `submit`, the file for
    // `submit-batch`.
    std::string json_arg, batch_file;

    // Retry policy.
    long retries = 0;
    double retry_base_ms = 50.0;
    double deadline_ms = 0.0;
    double timeout_ms = 0.0;
    unsigned long long seed = 1;
    long max_inflight = 0; // 0 = each owner group is one window

    auto need = [&](int i) -> const char * {
        if (i + 1 >= argc)
            die(std::string(argv[i]) + " needs a value");
        return argv[i + 1];
    };
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        // The value of a numeric flag, which must fit a T.
        auto num = [&]<typename T>(T &field) {
            field = gpm::numericFlag<T>(argv[i], need(i));
            i++;
        };
        if (a == "--host")
            host = need(i), i++;
        else if (a == "--port")
            num(port);
        else if (a == "--json")
            json_arg = need(i), i++;
        else if (a == "--retries")
            num(retries);
        else if (a == "--retry-base-ms")
            num(retry_base_ms);
        else if (a == "--deadline")
            num(deadline_ms);
        else if (a == "--timeout-ms")
            num(timeout_ms);
        else if (a == "--seed")
            num(seed);
        else if (a == "--max-inflight")
            num(max_inflight);
        else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (!a.empty() && a[0] == '-')
            die("unknown option '" + a + "' (try --help)");
        else if (command.empty())
            command = a;
        else if (command == "submit-batch" && batch_file.empty() &&
                 a[0] == '@')
            batch_file = a.substr(1);
        else
            die("unexpected argument '" + a + "'");
    }

    if (command != "ping" && command != "stats" &&
        command != "shutdown" && command != "submit" &&
        command != "submit-batch") {
        usage();
        return 1;
    }
    if (command == "submit" && json_arg.empty()) {
        std::fprintf(stderr, "gpmctl: submit needs --json SCENARIO\n");
        usage();
        return 1;
    }

    // --host may be a comma-separated HOST[:PORT] list; entries
    // without a port inherit --port (parsed here, after the arg
    // loop, so --host and --port order does not matter). The ring
    // names each endpoint "host:port".
    std::vector<std::string> names;
    for (const auto &tok : splitCommas(host)) {
        if (tok.empty())
            continue;
        std::size_t colon = tok.rfind(':');
        if (colon != std::string::npos && colon != 0 &&
            colon + 1 < tok.size() &&
            tok.find_first_not_of("0123456789", colon + 1) ==
                std::string::npos) {
            auto p = gpm::parseNumber<std::uint16_t>(tok.c_str() +
                                                     colon + 1);
            if (!p || *p == 0)
                die("bad port in endpoint '" + tok + "'");
            endpoints.push_back({tok.substr(0, colon), *p});
        } else {
            endpoints.push_back({tok, port});
        }
        names.push_back(endpoints.back().host + ":" +
                        std::to_string(endpoints.back().port));
    }
    if (endpoints.empty())
        die("--host named no endpoints");
    gpm::RendezvousRing ring(std::move(names));
    // The endpoints one request tries, in order: a scenario's ring
    // ranking, owner first (the same placement for any order of the
    // --host list); the list itself for other verbs and for a
    // scenario that does not parse, which the first endpoint then
    // answers with its structured "invalid" error.
    auto endpointOrder = [&](const Value *scenario) {
        if (scenario) {
            auto spec = gpm::parseScenario(*scenario);
            if (spec.ok())
                return ring.rank(spec.value().hash());
        }
        std::vector<std::size_t> order(endpoints.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        return order;
    };

    Value request = Value::object();
    request.set("id", "gpmctl");
    request.set("verb", command);

    if (command == "submit") {
        auto parsed = gpm::json::parse(json_arg);
        if (!parsed.ok())
            die("--json: " + parsed.error().message + " at offset " +
                std::to_string(parsed.error().offset));
        request.set("scenario", std::move(parsed.value()));
    }

    // The requests to send, in output order: ping, stats, shutdown
    // and submit send one, with id "gpmctl"; submit-batch sends one
    // submit per scenario of FILE, its id the input position.
    std::vector<Value> requests;
    if (command != "submit-batch") {
        requests.push_back(std::move(request));
    } else {
        if (batch_file.empty())
            die("submit-batch needs an @FILE.ndjson argument");
        std::FILE *f = std::fopen(batch_file.c_str(), "rb");
        if (!f)
            die("cannot open '" + batch_file + "'");
        std::string text;
        char chunk[1 << 14];
        std::size_t got;
        while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
            text.append(chunk, got);
        bool read_ok = !std::ferror(f);
        std::fclose(f);
        if (!read_ok)
            die("cannot read '" + batch_file + "'");
        // One scenario object per non-blank line; reject the whole
        // file on the first line that is not JSON (a scenario that
        // is JSON but invalid gets its own "invalid" answer).
        std::size_t line_no = 0, pos = 0;
        while (pos < text.size()) {
            std::size_t nl = text.find('\n', pos);
            std::string ln = text.substr(
                pos, nl == std::string::npos ? std::string::npos
                                             : nl - pos);
            pos = nl == std::string::npos ? text.size() : nl + 1;
            line_no++;
            if (!ln.empty() && ln.back() == '\r')
                ln.pop_back();
            if (ln.find_first_not_of(" \t") == std::string::npos)
                continue;
            auto parsed = gpm::json::parse(ln);
            if (!parsed.ok())
                die(batch_file + ":" + std::to_string(line_no) +
                    ": " + parsed.error().message);
            Value req = Value::object();
            req.set("id", Value(requests.size()));
            req.set("verb", "submit");
            req.set("scenario", std::move(parsed.value()));
            requests.push_back(std::move(req));
        }
        if (requests.empty())
            die("'" + batch_file + "' holds no scenarios");
    }

    const auto start = std::chrono::steady_clock::now();
    auto elapsed_ms = [&] {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    gpm::BackoffSchedule backoff(retry_base_ms,
                                 /*cap_ms=*/2000.0, seed);
    auto transientCode = [](const std::string &code) {
        return code == "busy" || code == "rejected_overload" ||
            code == "internal_error";
    };
    // A transient failure is retried while either budget is open:
    // the --retries attempt count, or wall-clock left on
    // --deadline. The deadline alone funds retries so that e.g. a
    // connection refused during daemon startup rides the seeded
    // backoff instead of being permanently fatal.
    auto canRetry = [&](long attempt) {
        return attempt < retries ||
            (deadline_ms > 0.0 && elapsed_ms() < deadline_ms);
    };
    /** The server's retryAfterMs hint from an "error" object
     *  (0 = none). */
    auto retryHintOf = [](const Value *err) {
        const Value *h = err ? err->find("retryAfterMs") : nullptr;
        return h && h->isNumber() ? h->asNumber() : 0.0;
    };

    // Response lines by request, in input order: empty until the
    // request is settled. A line prints as soon as every line before
    // it has, so output stays in input order however the requests
    // were grouped.
    std::vector<std::optional<std::string>> settled(requests.size());
    std::size_t printed = 0;
    int rc = 0;
    auto settle = [&](std::size_t pos, std::string line, bool ok) {
        if (!ok)
            rc = 2;
        settled[pos] = std::move(line);
        for (; printed < settled.size() && settled[printed]; printed++)
            std::printf("%s\n", settled[printed]->c_str());
    };

    // One window's send/retry cycle: every attempt sends the
    // window's open requests pipelined on one connection, to
    // endpoint order[k % size] on attempt k, and settles each final
    // response. A response is final unless it carries a transient
    // code while the retry budget is open; those requests, and any
    // a failed attempt left unanswered, are the next attempt's.
    // Transport failures past the retry budget die(1) from inside.
    auto runWindow = [&](std::vector<std::size_t> open,
                         const std::vector<std::size_t> &order) {
        for (long attempt = 0;; attempt++) {
            double remaining_ms = deadline_ms > 0.0
                ? deadline_ms - elapsed_ms()
                : -1.0;
            if (deadline_ms > 0.0 && remaining_ms <= 0.0)
                die("deadline of " + std::to_string(deadline_ms) +
                    " ms exhausted after " +
                    std::to_string(attempt) + " attempt(s)");

            std::string failure;
            double retry_floor_ms = 0.0;
            // The open requests not answered yet, by id.
            std::map<std::string, std::size_t> owed;
            for (std::size_t pos : open)
                owed.emplace(requests[pos].find("id")->dump(), pos);
            std::vector<std::size_t> again;
            std::string transient;

            const Endpoint &ep = endpoints[order[static_cast<
                std::size_t>(attempt) % order.size()]];
            auto conn = gpm::TcpStream::connectTo(ep.host, ep.port);
            if (!conn.ok()) {
                failure = conn.error();
            } else {
                gpm::TcpStream stream = std::move(conn.value());
                // Bound each attempt by --timeout-ms and what is
                // left of the overall --deadline, whichever is
                // tighter.
                double t = timeout_ms;
                if (remaining_ms > 0.0 &&
                    (t <= 0.0 || remaining_ms < t))
                    t = remaining_ms;
                if (t > 0.0) {
                    int ms = t < 1.0 ? 1 : static_cast<int>(t);
                    stream.setReadTimeoutMs(ms);
                    stream.setWriteTimeoutMs(ms);
                }
                std::string wire;
                for (std::size_t pos : open) {
                    wire += requests[pos].dump();
                    wire += '\n';
                }
                if (!stream.writeAll(wire))
                    failure = "failed to send request";
                while (failure.empty() && !owed.empty()) {
                    std::string ln;
                    auto status = stream.readLine(ln);
                    if (status == gpm::TcpStream::ReadStatus::Timeout) {
                        failure = "timed out waiting for a response";
                        break;
                    }
                    if (status != gpm::TcpStream::ReadStatus::Line) {
                        failure = "connection closed before every "
                                  "response arrived";
                        break;
                    }
                    auto parsed = gpm::json::parse(ln);
                    const Value *id =
                        parsed.ok() ? parsed.value().find("id") : nullptr;
                    auto it = id ? owed.find(id->dump()) : owed.end();
                    if (it == owed.end()) {
                        failure = "response matches no request";
                        break;
                    }
                    std::size_t pos = it->second;
                    owed.erase(it);
                    // Transient server-side outcomes are retried;
                    // anything else (including validation errors)
                    // is final.
                    const Value *err = parsed.value().find("error");
                    const Value *c = err ? err->find("code") : nullptr;
                    std::string code = c && c->isString() ? c->asString()
                                                          : "";
                    if (transientCode(code) && canRetry(attempt)) {
                        again.push_back(pos);
                        transient = code;
                        retry_floor_ms =
                            std::max(retry_floor_ms, retryHintOf(err));
                        continue;
                    }
                    const Value *ok = parsed.value().find("ok");
                    settle(pos, std::move(ln),
                           ok && ok->isBool() && ok->asBool());
                }
            }
            for (const auto &[id, pos] : owed)
                again.push_back(pos);
            if (again.empty())
                return;
            if (!failure.empty() && !canRetry(attempt))
                die(failure);
            std::sort(again.begin(), again.end());
            open = std::move(again);
            if (failure.empty())
                failure = "server reported '" + transient + "'" +
                    (open.size() > 1
                         ? " for " + std::to_string(open.size()) +
                             " requests"
                         : "");

            // Any retried failure — transport or a transient
            // refusal — moves to the next endpoint in @p order, so
            // the retry budget is spent across the fleet, not on one
            // dead replica.
            if (order.size() > 1)
                failure += "; moving to " +
                    ring.name(order[static_cast<std::size_t>(
                                        attempt + 1) %
                                    order.size()]);

            // The server's retryAfterMs hint is a floor under the
            // exponential backoff: never poke an overloaded daemon
            // sooner than it asked.
            double delay =
                std::max(backoff.nextMs(), retry_floor_ms);
            if (deadline_ms > 0.0) {
                double left = deadline_ms - elapsed_ms();
                if (left <= 0.0)
                    die("deadline of " +
                        std::to_string(deadline_ms) +
                        " ms exhausted after " +
                        std::to_string(attempt + 1) +
                        " attempt(s)");
                if (delay > left)
                    delay = left;
            }
            if (attempt < retries)
                std::fprintf(stderr,
                             "gpmctl: %s; retrying in %.0f ms "
                             "(attempt %ld of %ld)\n",
                             failure.c_str(), delay, attempt + 1,
                             retries + 1);
            else
                // Past the attempt budget, the --deadline is what
                // funds this retry.
                std::fprintf(stderr,
                             "gpmctl: %s; retrying in %.0f ms "
                             "(attempt %ld, %.0f ms of deadline "
                             "left)\n",
                             failure.c_str(), delay, attempt + 1,
                             deadline_ms - elapsed_ms());
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(delay));
        }
    };

    // Group the requests by owning endpoint, keeping input order
    // within each group, and send each group as consecutive windows
    // of at most --max-inflight requests. A window's retries walk
    // the ranking of its first request.
    std::vector<std::vector<std::size_t>> orders;
    std::vector<std::vector<std::size_t>> groups(endpoints.size());
    for (std::size_t i = 0; i < requests.size(); i++) {
        orders.push_back(endpointOrder(requests[i].find("scenario")));
        groups[orders.back()[0]].push_back(i);
    }
    std::size_t window = max_inflight > 0
        ? static_cast<std::size_t>(max_inflight)
        : requests.size();
    for (const auto &group : groups)
        for (std::size_t off = 0; off < group.size(); off += window)
            runWindow(
                std::vector<std::size_t>(
                    group.begin() + static_cast<std::ptrdiff_t>(off),
                    group.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(group.size(),
                                                 off + window))),
                orders[group[off]]);

    // After the raw JSON line (which scripts grep), pretty-print
    // every counter the server reported — generically and
    // KEY-SORTED, so new counters show up without a client release
    // and smoke greps see a stable order. Bare strings print
    // unquoted (breaker states read as open/half-open/closed, not
    // "\"open\"").
    if (command == "stats" && rc == 0) {
        auto parsed = gpm::json::parse(*settled[0]);
        const Value *res = parsed.value().find("result");
        if (res && res->isObject()) {
            std::vector<std::pair<std::string, std::string>> rows;
            for (const auto &[key, val] : res->asObject())
                rows.emplace_back(key, val.isString() ? val.asString()
                                                      : val.dump());
            std::sort(rows.begin(), rows.end());
            for (const auto &[key, val] : rows)
                std::fprintf(stderr, "gpmctl: %s: %s\n", key.c_str(),
                             val.c_str());
        }
    }
    return rc;
}
