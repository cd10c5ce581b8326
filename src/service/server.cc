#include "service/server.hh"

#include "service/prom.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace gpm
{

using json::Value;

GpmServer::GpmServer(ScenarioService &svc_, TcpListener listener_,
                     ServerOptions opts_)
    : svc(svc_), listener(std::move(listener_)), opts(opts_),
      reactor(*this, opts_)
{
    reactor.serveListener(listener.fd(), ReactorConn::Kind::Ndjson);
}

GpmServer::~GpmServer() { stopAndDrain(); }

void
GpmServer::attachMetricsListener(TcpListener l)
{
    metricsListener = std::move(l);
    reactor.serveListener(metricsListener.fd(),
                          ReactorConn::Kind::Http);
}

void
GpmServer::run()
{
    reactor.start();
    std::unique_lock<std::mutex> lock(stopMtx);
    stopCv.wait(lock, [&] { return acceptClosed; });
}

void
GpmServer::requestStop()
{
    listener.shutdownListener();
}

void
GpmServer::onAcceptDone()
{
    std::lock_guard<std::mutex> lock(stopMtx);
    acceptClosed = true;
    stopCv.notify_all();
}

void
GpmServer::stopAndDrain()
{
    requestStop();
    {
        std::lock_guard<std::mutex> lock(stopMtx);
        if (drained)
            return;
        drained = true;
    }
    // Finish dispatched scenario work first: every pending response
    // is computed and enqueued (the workers invoke the connections'
    // completion callbacks) before any socket goes away.
    svc.drain();
    // Then flush what is queued, close every connection and join
    // the loop thread.
    reactor.shutdownAndJoin();
    listener.close();
    metricsListener.close();
}

namespace
{

std::string
errorResponse(const Value &id, const std::string &code,
              const std::string &message,
              double retryAfterMs = 0.0)
{
    Value root = Value::object();
    root.set("id", id);
    root.set("ok", false);
    Value err = Value::object();
    err.set("code", code);
    err.set("message", message);
    if (retryAfterMs > 0.0)
        err.set("retryAfterMs", retryAfterMs);
    root.set("error", std::move(err));
    return root.dump();
}

std::string
okResponse(const Value &id, Value result)
{
    Value root = Value::object();
    root.set("id", id);
    root.set("ok", true);
    root.set("result", std::move(result));
    return root.dump();
}

/** Frame one complete HTTP/1.0 response. */
std::string
httpResponse(int code, const char *status, const char *ctype,
             std::string body)
{
    std::string r = "HTTP/1.0 ";
    r += std::to_string(code);
    r += ' ';
    r += status;
    r += "\r\nContent-Type: ";
    r += ctype;
    r += "\r\nContent-Length: ";
    r += std::to_string(body.size());
    r += "\r\nConnection: close\r\n\r\n";
    r += body;
    return r;
}

} // namespace

// Written straight to bytes; the reserve leaves room for
// sendLine's newline.
std::string
submitResponse(const Value &id, const ScenarioService::Response &r)
{
    if (!r.ok)
        return errorResponse(id, r.errorCode, r.errorMessage,
                             r.retryAfterMs);
    std::string out;
    out.reserve(96 + r.degradedFrom.size() + r.degradedTo.size() +
                r.payload.size());
    out += "{\"id\":";
    id.dump(out);
    out += r.cacheHit ? ",\"ok\":true,\"cached\":true"
                      : ",\"ok\":true,\"cached\":false";
    if (!r.degradedTo.empty()) {
        out += ",\"degraded\":{\"from\":";
        json::formatString(out, r.degradedFrom);
        out += ",\"to\":";
        json::formatString(out, r.degradedTo);
        out += ",\"reason\":";
        json::formatString(out, r.degradedReason);
        out += '}';
    }
    out += ",\"result\":";
    out += r.payload;
    out += '}';
    return out;
}

void
GpmServer::sendLine(const std::shared_ptr<ReactorConn> &conn,
                    std::string line)
{
    line.push_back('\n');
    conn->send(std::move(line));
}

void
GpmServer::sendInvalid(const std::shared_ptr<ReactorConn> &conn,
                       const Value &id, const std::string &message)
{
    svc.countInvalid();
    sendLine(conn, errorResponse(id, "invalid", message));
}

std::string
GpmServer::onLineTooLong()
{
    std::string line = errorResponse(
        Value(nullptr), "line_too_long",
        "request line exceeds " +
            std::to_string(opts.maxLineBytes) + " bytes");
    line.push_back('\n');
    return line;
}

std::string
GpmServer::onHttpRequest(std::string_view method,
                         std::string_view path)
{
    if (method != "GET")
        return httpResponse(405, "Method Not Allowed",
                            "text/plain; charset=utf-8",
                            "method not allowed\n");
    if (path == "/healthz")
        return httpResponse(200, "OK",
                            "text/plain; charset=utf-8", "ok\n");
    if (path == "/metrics") {
        return httpResponse(
            200, "OK",
            "text/plain; version=0.0.4; charset=utf-8",
            renderPrometheus(
                svc.stats(), reactor.stats(),
                requests.load(std::memory_order_relaxed)));
    }
    return httpResponse(404, "Not Found",
                        "text/plain; charset=utf-8",
                        "not found\n");
}

void
GpmServer::onLine(const std::shared_ptr<ReactorConn> &conn,
                  std::string_view line)
{
    requests++;
    Value id(nullptr);

    auto parsed = json::parse(line);
    if (!parsed.ok()) {
        sendLine(conn,
                 errorResponse(id, "parse",
                               parsed.error().message +
                                   " at offset " +
                                   std::to_string(
                                       parsed.error().offset)));
        return;
    }
    const Value &req = parsed.value();
    if (!req.isObject()) {
        sendLine(conn,
                 errorResponse(id, "parse",
                               "request must be a JSON object"));
        return;
    }

    if (const Value *rid = req.find("id")) {
        if (!rid->isScalar()) {
            sendInvalid(conn, id, "id must be a scalar");
            return;
        }
        id = *rid;
    }
    for (const auto &[key, val] : req.asObject()) {
        (void)val;
        if (key != "id" && key != "verb" && key != "scenario") {
            sendInvalid(conn, id,
                        "unknown request field '" + key + "'");
            return;
        }
    }

    const Value *verb = req.find("verb");
    if (!verb || !verb->isString()) {
        sendInvalid(conn, id, "missing or non-string 'verb'");
        return;
    }
    const std::string &v = verb->asString();

    if (v == "ping") {
        Value result = Value::object();
        result.set("pong", true);
        sendLine(conn, okResponse(id, std::move(result)));
        return;
    }

    if (v == "stats") {
        ServiceStats s = svc.stats();
        ReactorStats r = reactor.stats();
        Value result = Value::object();
        result.set("uptimeSec", s.uptimeSec);
        result.set("served", s.served);
        result.set("cacheHits", s.cacheHits);
        result.set("cacheMisses", s.cacheMisses);
        result.set("cacheHitRate", s.cacheHitRate);
        result.set("cacheSize", s.cacheSize);
        result.set("queueDepth", s.queueDepth);
        result.set("inFlight", s.inFlight);
        result.set("rejectedBusy", s.rejectedBusy);
        result.set("invalid", s.invalid);
        result.set("shedDeadline", s.shedDeadline);
        result.set("workerCrashes", s.workerCrashes);
        result.set("workersAlive", s.workersAlive);
        result.set("diskHits", s.diskHits);
        result.set("diskEvictions", s.diskEvictions);
        result.set("diskQuarantined", s.diskQuarantined);
        result.set("diskWriteFailures", s.diskWriteFailures);
        result.set("diskEntries", s.diskEntries);
        result.set("diskBytes", s.diskBytes);
        result.set("cancelledMidSweep", s.cancelledMidSweep);
        result.set("clusterRequests", s.clusterRequests);
        result.set("clusterEpochs", s.clusterEpochs);
        result.set("chipSims", s.chipSims);
        result.set("profileBuilds", s.profileBuilds);
        result.set("profileDiskHits", s.profileDiskHits);
        result.set("profileBuildMs", s.profileBuildMs);
        result.set("profileReady", s.profileReady);
        result.set("profileQuarantined", s.profileQuarantined);
        result.set("profileWriteFailures", s.profileWriteFailures);
        result.set("shedOverload", s.shedOverload);
        result.set("degradedRequests", s.degradedRequests);
        result.set("breakerOpens",
                   s.diskBreakerOpens + s.profileBreakerOpens);
        result.set("breakerRefusals",
                   s.diskBreakerRefusals +
                       s.profileBreakerRefusals);
        result.set("breakerStateDisk",
                   std::string(s.diskBreakerState));
        result.set("breakerStateProfile",
                   std::string(s.profileBreakerState));
        result.set("connections", r.accepted);
        result.set("requests", requests.load());
        result.set("idleReaped", r.idleReaped);
        result.set("lineTooLong", r.lineTooLong);
        result.set("openConnections", r.openConnections);
        result.set("epollWakeups", r.epollWakeups);
        result.set("bytesIn", r.bytesIn);
        result.set("bytesOut", r.bytesOut);
        result.set("ringHighWater", r.ringHighWater);
        result.set("acceptSheds", r.emfileSheds);
        result.set("faultsArmed", fault::armed());
        sendLine(conn, okResponse(id, std::move(result)));
        return;
    }

    if (v == "submit") {
        const Value *scenario = req.find("scenario");
        if (!scenario) {
            sendInvalid(conn, id, "submit needs a 'scenario'");
            return;
        }
        auto spec = parseScenario(*scenario);
        if (!spec.ok()) {
            sendInvalid(conn, id, spec.error());
            return;
        }
        // Dispatch and return to reading: the response line is
        // enqueued whenever the service completes it (immediately
        // for cache hits and rejections).
        conn->addPending();
        svc.submitAsync(
            spec.value(),
            [conn, id](ScenarioService::Response &&r) {
                sendLine(conn, submitResponse(id, r));
                conn->decPending();
            },
            conn->clientId());
        return;
    }

    if (v == "shutdown") {
        Value result = Value::object();
        result.set("stopping", true);
        sendLine(conn, okResponse(id, std::move(result)));
        requestStop();
        return;
    }

    sendInvalid(conn, id, "unknown verb '" + v + "'");
}

} // namespace gpm
