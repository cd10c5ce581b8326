/**
 * @file
 * Epoll reactor transport for gpmd — the 10k-connection accept/read
 * path underneath GpmServer.
 *
 * A ReactorPool runs N single-threaded event loops (default 1; see
 * ServerOptions::reactorThreads). Reactor 0 owns the listening
 * sockets and hands accepted connections round-robin to the pool;
 * every data socket is non-blocking and registered edge-triggered
 * (EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP). Each connection is a
 * small state machine:
 *
 *  - reads land straight in a LineScanner (line_scanner.hh), which
 *    frames NDJSON request lines in place and hands the protocol
 *    handler zero-copy string_view slices;
 *  - responses are appended (from any thread — worker completions
 *    included) to a per-connection output queue under one small
 *    mutex, preserving per-connection write sequencing, and flushed
 *    by the owning reactor with writev/sendmsg. A partial flush
 *    leaves the rest for the next EPOLLOUT edge — backpressure
 *    never blocks a thread;
 *  - idle reaping and write-progress deadlines are timer sweeps on
 *    the owning reactor (a connection owed responses is working,
 *    not idle — same contract as the old thread-per-connection
 *    reader).
 *
 * Cross-thread signalling is one eventfd per reactor: worker
 * threads completing a scenario enqueue the response and push the
 * connection onto the owner's wake queue; completions that fire
 * synchronously on a reactor thread (cache hits) short-circuit into
 * a local dirty list instead.
 *
 * Accept hardening: a transient EMFILE/ENFILE no longer kills the
 * accept loop — each accepting reactor holds a reserved spare fd
 * that is dropped to accept-and-shed the pending connection, then
 * reopened (the shed client sees a clean close and retries).
 *
 * The same pool can serve a second, HTTP-flavored listener for the
 * observability surface (/metrics, /healthz): those connections
 * parse a minimal request (request line + headers to the blank
 * line), get one handler-rendered response, and close after the
 * flush.
 *
 * Fault points (util/fault.hh) preserved from the threaded server:
 * accept-delay before adopting an accepted fd, read-drop and
 * conn-stall per framed request line, response-delay on every
 * enqueued response.
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
class ReactorPool;

/** Reactor tuning; GpmServer maps ServerOptions onto this. */
struct ReactorOptions
{
    std::size_t threads = 1;
    /** Reap a connection with no received bytes and no pending or
     *  queued responses for this long; 0 = never. */
    int idleTimeoutMs = 0;
    /** Close a connection whose queued responses make no write
     *  progress for this long; 0 = wait forever. */
    int writeTimeoutMs = 0;
    /** Longest accepted NDJSON request line. */
    std::size_t maxLineBytes = 1 << 20;
};

/**
 * One connection's transport state. The owning reactor is the only
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
     * and wake the owning reactor to flush it. Callable from any
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
    friend class ReactorPool;

    /** Schedule a flush/close re-evaluation on the owner. */
    void wake();

    int fd = -1;
    Kind kind = Kind::Ndjson;
    std::uint64_t clientId_ = 0;
    Reactor *owner = nullptr;

    // ---- read side (owning reactor thread only) ----
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
    bool flushQueued = false;  ///< already on the owner's dirty list

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
     * connection's scan buffer, valid only for this call. Runs on a
     * reactor thread; dispatch long work and return.
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

/** Aggregated transport counters (monotonic unless noted). */
struct ReactorStats
{
    std::uint64_t accepted = 0;      ///< connections ever accepted
    std::uint64_t openConnections = 0; ///< gauge: open right now
    std::uint64_t epollWakeups = 0;  ///< epoll_wait returns
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    std::uint64_t ringHighWater = 0; ///< max scan-buffer fill seen
    std::uint64_t idleReaped = 0;
    std::uint64_t lineTooLong = 0;
    std::uint64_t emfileSheds = 0;   ///< conns shed via the spare fd
};

class ReactorPool
{
  public:
    ReactorPool(ReactorHandler &handler, ReactorOptions opts);
    /** shutdownAndJoin() if the owner did not. */
    ~ReactorPool();

    ReactorPool(const ReactorPool &) = delete;
    ReactorPool &operator=(const ReactorPool &) = delete;

    /** Register the NDJSON listening socket (not owned; made
     *  non-blocking). Call before start(). */
    void serveListener(int fd);
    /** Register the HTTP observability listener (not owned). */
    void serveHttpListener(int fd);

    /** Start the reactor threads. Idempotent. */
    void start();

    /**
     * Graceful teardown: stop reading new requests, flush every
     * queued response, close all connections, join the threads.
     * Idempotent. Callers drain the scenario service first so no
     * response is still being computed.
     */
    void shutdownAndJoin();

    ReactorStats stats() const;

  private:
    friend class Reactor;
    friend class ReactorConn;

    /** Round-robin home for a freshly accepted connection. */
    Reactor &reactorFor(std::uint64_t ordinal);

    /** Fire handler.onAcceptDone() exactly once. */
    void notifyAcceptDone();

    ReactorHandler &handler;
    ReactorOptions opts;
    std::vector<std::unique_ptr<Reactor>> reactors;
    std::atomic<std::uint64_t> acceptCounter{0};
    std::atomic<bool> acceptDoneFlag{false};
    bool started = false;
    bool joined = false;
    std::mutex lifecycleMtx;
};

} // namespace gpm

#endif // GPM_SERVICE_REACTOR_HH
