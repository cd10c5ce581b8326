/**
 * @file
 * Epoll reactor transport for gpmd — the 10k-connection accept/read
 * path underneath GpmServer.
 *
 * One event loop on one thread owns the listening sockets and every
 * connection; every data socket is non-blocking and registered
 * edge-triggered (EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP). Each
 * connection is a small state machine:
 *
 *  - reads land straight in a LineScanner (line_scanner.hh), which
 *    frames NDJSON request lines in place and hands the protocol
 *    handler zero-copy string_view slices;
 *  - responses are appended (from any thread — worker completions
 *    included) to a per-connection output queue under one small
 *    mutex, preserving per-connection write sequencing, and flushed
 *    by the loop with scatter-gather sendmsg. A partial flush
 *    leaves the rest for the next EPOLLOUT edge — backpressure
 *    never blocks a thread;
 *  - idle reaping and write-progress deadlines are timer sweeps on
 *    the loop (a connection owed responses is working, not idle).
 *
 * Cross-thread signalling is one eventfd: worker threads completing
 * a scenario enqueue the response and push the connection onto the
 * wake queue; completions that fire synchronously on the loop
 * thread (cache hits) short-circuit into a local dirty list
 * instead.
 *
 * Accept hardening: a transient EMFILE/ENFILE does not kill the
 * accept loop — the reactor holds a reserved spare fd that is
 * dropped to accept-and-shed the pending connection, then reopened
 * (the shed client sees a clean close and retries).
 *
 * The same loop can serve a second, HTTP-flavored listener for the
 * observability surface (/metrics, /healthz): those connections
 * parse a minimal request (request line + headers to the blank
 * line), get one handler-rendered response, and close after the
 * flush.
 *
 * Fault points (util/fault.hh): accept-delay before adopting an
 * accepted fd, read-drop and conn-stall per framed request line,
 * response-delay on every enqueued response.
 */

#ifndef GPM_SERVICE_REACTOR_HH
#define GPM_SERVICE_REACTOR_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/line_scanner.hh"

namespace gpm
{

class Reactor;

/** Transport hardening knobs; GpmServer hands them to its
 *  Reactor. */
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
};

/**
 * One connection's transport state. The reactor thread is the only
 * reader and the only thread that touches the socket; any thread
 * may send() a response line (sequenced by the out-queue mutex).
 */
class ReactorConn
    : public std::enable_shared_from_this<ReactorConn>
{
  public:
    enum class Kind
    {
        Ndjson, ///< request/response scenario protocol
        Http,   ///< one GET, one response, close (metrics surface)
    };

    /** Fairness identity: the 1-based accept ordinal (never 0 — 0
     *  is the exempt in-process caller). */
    std::uint64_t clientId() const { return clientId_; }

    /**
     * Queue one complete response line (terminating '\n' included)
     * and wake the reactor to flush it. Callable from any
     * thread; a line sent to a closed connection is dropped.
     */
    void send(std::string line);

    /** One more response dispatched but not yet enqueued via
     *  send(). */
    void addPending();
    /** One dispatched response was enqueued (or abandoned). */
    void decPending();

    /** A write failed; the reactor stops serving this connection. */
    bool isBroken() const
    {
        return broken.load(std::memory_order_relaxed);
    }

  private:
    friend class Reactor;

    /** Schedule a flush/close re-evaluation on the reactor. */
    void wake();

    int fd = -1;
    Kind kind = Kind::Ndjson;
    std::uint64_t clientId_ = 0;
    Reactor *owner = nullptr;

    // ---- read side (reactor thread only) ----
    LineScanner in;
    bool readEof = false;
    bool stopReading = false;
    bool closeAfterFlush = false;
    bool httpGotRequestLine = false;
    std::string httpMethod, httpPath;
    std::chrono::steady_clock::time_point lastActivity{};
    std::chrono::steady_clock::time_point lastWriteOk{};

    // ---- write side (any thread, under mtx) ----
    std::mutex mtx;
    std::deque<std::string> out;
    std::size_t outHead = 0;   ///< bytes of out.front() sent
    bool closedForSend = false;
    bool flushQueued = false;  ///< already on a dirty/wake list

    std::atomic<std::size_t> pending{0};
    std::atomic<bool> broken{false};
};

/** What the protocol layer (GpmServer) plugs into the transport. */
class ReactorHandler
{
  public:
    virtual ~ReactorHandler() = default;

    /**
     * One framed NDJSON request line — a zero-copy view into the
     * connection's scan buffer, valid only for this call. Runs on
     * the reactor thread; dispatch long work and return.
     */
    virtual void onLine(const std::shared_ptr<ReactorConn> &conn,
                        std::string_view line) = 0;

    /** The one response line (with '\n') written before a
     *  connection that overran maxLineBytes is closed. */
    virtual std::string onLineTooLong() = 0;

    /**
     * Full HTTP response bytes (status line + headers + body) for
     * @p method @p path on the observability listener.
     */
    virtual std::string onHttpRequest(std::string_view method,
                                      std::string_view path) = 0;

    /** The NDJSON listener stopped accepting (shut down/closed). */
    virtual void onAcceptDone() = 0;
};

/** Transport counters (monotonic unless noted). */
struct ReactorStats
{
    std::uint64_t accepted = 0;      ///< NDJSON connections accepted
    std::uint64_t openConnections = 0; ///< gauge: NDJSON, open now
    std::uint64_t epollWakeups = 0;  ///< epoll_wait returns
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    std::uint64_t ringHighWater = 0; ///< max scan-buffer fill seen
    std::uint64_t idleReaped = 0;
    std::uint64_t lineTooLong = 0;
    std::uint64_t emfileSheds = 0;   ///< conns shed via the spare fd
};

/**
 * The event loop: an epoll instance, an eventfd for cross-thread
 * wake-ups, the listening sockets, the connections, and a spare fd
 * reserved for shedding connections under EMFILE/ENFILE.
 */
class Reactor
{
  public:
    Reactor(ReactorHandler &handler, ServerOptions opts);
    /** shutdownAndJoin() if the owner did not. */
    ~Reactor();

    Reactor(const Reactor &) = delete;
    Reactor &operator=(const Reactor &) = delete;

    /** Serve @p kind connections accepted on the listening socket
     *  @p fd (not owned; made non-blocking). Call before start();
     *  one listener per kind. */
    void serveListener(int fd, ReactorConn::Kind kind);

    /** Start the loop thread. Idempotent. */
    void start();

    /**
     * Graceful teardown: stop reading new requests, flush every
     * queued response, close all connections, join the thread.
     * Idempotent. Callers drain the scenario service first so no
     * response is still being computed.
     */
    void shutdownAndJoin();

    ReactorStats stats() const;

  private:
    friend class ReactorConn;

    /** Queue a flush/close re-evaluation for @p c (any thread). */
    void scheduleFlush(std::shared_ptr<ReactorConn> c);
    void signalWake();
    int epollTimeoutMs() const;
    void loop();
    void drainWakeFd();
    void acceptReady(ReactorConn::Kind kind);
    void shedOverLimit(int lfd);
    void adopt(std::shared_ptr<ReactorConn> c);
    void readConn(std::shared_ptr<ReactorConn> c);
    bool scanNdjson(const std::shared_ptr<ReactorConn> &c);
    bool scanHttp(const std::shared_ptr<ReactorConn> &c);
    void respondHttp(const std::shared_ptr<ReactorConn> &c);
    void flushConn(std::shared_ptr<ReactorConn> c);
    void maybeCloseQuiescent(const std::shared_ptr<ReactorConn> &c);
    void closeConn(std::shared_ptr<ReactorConn> c);
    void sweepTimers();
    void handleDrain();

    /** The reactor whose loop runs on this thread, if any. */
    static thread_local Reactor *t_current;

    ReactorHandler &handler;
    ServerOptions opts;
    int epfd = -1;
    int wakeFd = -1;
    int spareFd = -1;
    int ndjsonListenFd = -1;
    int httpListenFd = -1;
    bool draining = false;
    std::atomic<bool> drainRequested{false};
    std::unordered_map<int, std::shared_ptr<ReactorConn>> conns;
    /** Conns with responses enqueued during the current event
     *  batch (loop thread only). */
    std::vector<std::shared_ptr<ReactorConn>> dirty;
    std::mutex wakeMtx;
    std::vector<std::shared_ptr<ReactorConn>> wakeQueue;

    // Written by the loop thread, read by stats() from anywhere.
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> openConns{0};
    std::atomic<std::uint64_t> wakeups{0};
    std::atomic<std::uint64_t> bytesIn{0};
    std::atomic<std::uint64_t> bytesOut{0};
    std::atomic<std::uint64_t> ringHighWater{0};
    std::atomic<std::uint64_t> idleReaped{0};
    std::atomic<std::uint64_t> lineTooLong{0};
    std::atomic<std::uint64_t> emfileSheds{0};

    std::mutex lifecycleMtx;
    bool started = false;
    bool joined = false;
    /** The loop; declared last, after everything it uses. */
    std::thread thr;
};

} // namespace gpm

#endif // GPM_SERVICE_REACTOR_HH
