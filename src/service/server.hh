/**
 * @file
 * GpmServer — the NDJSON-over-TCP front end of a ScenarioService.
 *
 * Protocol (one JSON object per line; see docs/SERVICE.md for the
 * full contract):
 *
 *   {"id": <scalar?>, "verb": "ping"}
 *   {"id": <scalar?>, "verb": "stats"}
 *   {"id": <scalar?>, "verb": "submit", "scenario": {...}}
 *   {"id": <scalar?>, "verb": "shutdown"}
 *
 * Responses echo the request id and carry either "result" (with
 * "cached" for submits, plus "degraded": {from, to, reason} when
 * the ladder substituted a cheaper solver) or "error": {"code",
 * "message"} with codes parse | invalid | busy | rejected_overload
 * | draining | deadline_exceeded | internal_error | line_too_long.
 * busy / rejected_overload errors carry "retryAfterMs", the
 * server's backoff floor hint.
 *
 * Pipelining: a client may send further request lines before
 * earlier responses arrive, and that is how it keeps many scenarios
 * in flight: each submit is dispatched to the service as soon as
 * its line is read — the reactor keeps reading while workers
 * compute — and is admitted, rejected or served on its own.
 * Responses are written as results complete, not in request order;
 * clients match them by "id". Each response line is enqueued
 * atomically on the connection's ordered output queue.
 *
 * Connection model: one epoll event loop on one thread
 * (reactor.hh). Request lines are framed zero-copy in
 * per-connection scan buffers and handled on the loop thread;
 * responses flush via sendmsg with EPOLLOUT-driven backpressure.
 * run() blocks until requestStop() (callable from a signal handler
 * via the listener's async-signal-safe shutdown); stopAndDrain()
 * then finishes queued scenario work, flushes and closes the
 * remaining connections and joins the loop — the clean
 * SIGINT/SIGTERM draining path.
 *
 * Observability: attachMetricsListener() adds an HTTP listener on
 * the same reactor serving GET /metrics (Prometheus text; see
 * prom.hh) and GET /healthz.
 *
 * Hardening (see docs/ROBUSTNESS.md): a connection idle past
 * ServerOptions::idleTimeoutMs with no responses outstanding is
 * reaped (a connection still owed responses is working, not idle);
 * a request line longer than maxLineBytes is answered with a
 * structured "line_too_long" error before the connection closes
 * (framing is unrecoverable past an overrun); a connection whose
 * queued responses make no write progress for writeTimeoutMs is
 * dropped; transient EMFILE/ENFILE sheds the incoming connection
 * via a reserved spare fd instead of killing the accept loop.
 */

#ifndef GPM_SERVICE_SERVER_HH
#define GPM_SERVICE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "service/net.hh"
#include "service/reactor.hh"
#include "service/service.hh"

namespace gpm
{

/**
 * The response line, without its newline, to a submit with request
 * id @p id that came out as @p r: the error envelope when !r.ok,
 * else {"id", "ok": true, "cached", "degraded" when the ladder
 * served a rung down, "result": the payload as it stands}, so cached
 * and computed responses are byte-identical in their "result".
 */
std::string submitResponse(const json::Value &id,
                           const ScenarioService::Response &r);

class GpmServer : private ReactorHandler
{
  public:
    GpmServer(ScenarioService &svc, TcpListener listener,
              ServerOptions opts = ServerOptions{});

    /** stopAndDrain() if the owner did not. */
    ~GpmServer() override;

    GpmServer(const GpmServer &) = delete;
    GpmServer &operator=(const GpmServer &) = delete;

    std::uint16_t port() const { return listener.port(); }
    int listenerFd() const { return listener.fd(); }

    /** Serve GET /metrics and /healthz on @p l (same reactor).
     *  Call before run(). */
    void attachMetricsListener(TcpListener l);
    /** The metrics listener's port; 0 when none is attached. */
    std::uint16_t metricsPort() const
    {
        return metricsListener.valid() ? metricsListener.port()
                                       : 0;
    }

    /** Serve; blocks until requestStop(). */
    void run();

    /** Unblock run(). Safe from signal handlers and other
     *  threads. */
    void requestStop();

    /**
     * Graceful teardown: drain the service (dispatched submits
     * complete and their responses are written), flush and close
     * the remaining connections, join the loop. Idempotent.
     */
    void stopAndDrain();

    /** Connections accepted since start. */
    std::uint64_t connectionCount() const
    {
        return reactor.stats().accepted;
    }
    /** Requests (lines) handled since start. */
    std::uint64_t requestCount() const { return requests; }
    /** Connections reaped for idling past idleTimeoutMs. */
    std::uint64_t idleReapedCount() const
    {
        return reactor.stats().idleReaped;
    }
    /** Over-long lines answered with "line_too_long". */
    std::uint64_t lineTooLongCount() const
    {
        return reactor.stats().lineTooLong;
    }

  private:
    // ---- ReactorHandler ----
    void onLine(const std::shared_ptr<ReactorConn> &conn,
                std::string_view line) override;
    std::string onLineTooLong() override;
    std::string onHttpRequest(std::string_view method,
                              std::string_view path) override;
    void onAcceptDone() override;

    /** Enqueue one response line (appends '\n'). */
    static void sendLine(const std::shared_ptr<ReactorConn> &conn,
                         std::string line);
    /** Count and enqueue one "invalid" error line. */
    void sendInvalid(const std::shared_ptr<ReactorConn> &conn,
                     const json::Value &id, const std::string &message);

    ScenarioService &svc;
    TcpListener listener;
    TcpListener metricsListener;
    ServerOptions opts;
    Reactor reactor;

    std::mutex stopMtx;
    std::condition_variable stopCv;
    bool acceptClosed = false;
    bool drained = false;

    std::atomic<std::uint64_t> requests{0};
};

} // namespace gpm

#endif // GPM_SERVICE_SERVER_HH
