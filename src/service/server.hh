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
 *   {"id": <scalar?>, "verb": "submit_batch", "scenarios": [...]}
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
 * earlier responses arrive. submit and submit_batch are dispatched
 * asynchronously — the reactor keeps reading while workers compute
 * — and responses are written as results complete, not in request
 * order; clients match them by "id". Each response line is enqueued
 * atomically on the connection's ordered output queue.
 *
 * submit_batch admits its scenarios all-or-nothing and answers with
 * either ONE batch-level error line (no "index") or exactly one
 * line per scenario carrying "index" (position in the request
 * array) and "hash" (canonical scenario hash, 16 hex digits), in
 * completion order.
 *
 * Connection model: an epoll reactor pool (reactor.hh; default one
 * event loop, ServerOptions::reactorThreads for more). Request
 * lines are framed zero-copy in per-connection scan buffers and
 * handled on the reactor thread; responses flush via writev with
 * EPOLLOUT-driven backpressure. run() blocks until requestStop()
 * (callable from a signal handler via the listener's
 * async-signal-safe shutdown); stopAndDrain() then finishes queued
 * scenario work, flushes and closes the remaining connections and
 * joins the reactors — the clean SIGINT/SIGTERM draining path.
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

/** GpmServer hardening knobs. */
struct ServerOptions
{
    /** Reap a connection with no received bytes *and* no pending
     *  responses for this long; 0 = never. */
    int idleTimeoutMs = 0;
    /** Close a connection whose queued responses make no write
     *  progress for this long; 0 = wait forever. */
    int writeTimeoutMs = 0;
    /** Longest accepted request line; longer ones are answered
     *  with "line_too_long" and the connection is closed. */
    std::size_t maxLineBytes = 1 << 20;
    /** Reactor event loops serving the sockets. */
    std::size_t reactorThreads = 1;
};

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
     * the remaining connections, join the reactors. Idempotent.
     */
    void stopAndDrain();

    /** Connections accepted since start. */
    std::uint64_t connectionCount() const
    {
        return pool->stats().accepted;
    }
    /** Requests (lines) handled since start. */
    std::uint64_t requestCount() const { return requests; }
    /** Connections reaped for idling past idleTimeoutMs. */
    std::uint64_t idleReapedCount() const
    {
        return pool->stats().idleReaped;
    }
    /** Over-long lines answered with "line_too_long". */
    std::uint64_t lineTooLongCount() const
    {
        return pool->stats().lineTooLong;
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
    std::unique_ptr<ReactorPool> pool;

    std::mutex stopMtx;
    std::condition_variable stopCv;
    bool acceptClosed = false;
    bool drained = false;

    std::atomic<std::uint64_t> requests{0};
};

} // namespace gpm

#endif // GPM_SERVICE_SERVER_HH
