#include "service/reactor.hh"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/fault.hh"
#include "util/logging.hh"

namespace gpm
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Minimum tail space requested before each recv(); the scanner
 *  consumes as it goes, so quiet connections never grow past this. */
constexpr std::size_t kReadChunk = 4096;
constexpr int kMaxEvents = 256;
constexpr std::size_t kMaxIov = 64;
/** HTTP request/header lines are tiny; anything bigger is abuse. */
constexpr std::size_t kHttpMaxLine = 8192;

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

bool
deadlinePassed(Clock::time_point since, Clock::time_point now,
               int ms)
{
    return now - since >= std::chrono::milliseconds(ms);
}

} // namespace

thread_local Reactor *Reactor::t_current = nullptr;

Reactor::Reactor(ReactorHandler &handler_, ServerOptions opts_)
    : handler(handler_), opts(opts_)
{
    epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd < 0)
        fatal("reactor: epoll_create1: %s", std::strerror(errno));
    wakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wakeFd < 0)
        fatal("reactor: eventfd: %s", std::strerror(errno));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wakeFd;
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, wakeFd, &ev);
    spareFd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

Reactor::~Reactor()
{
    shutdownAndJoin();
    if (spareFd >= 0)
        ::close(spareFd);
    if (wakeFd >= 0)
        ::close(wakeFd);
    if (epfd >= 0)
        ::close(epfd);
}

void
Reactor::serveListener(int fd, ReactorConn::Kind kind)
{
    // Level-triggered: acceptReady() drains until EAGAIN anyway.
    setNonBlocking(fd);
    (kind == ReactorConn::Kind::Http ? httpListenFd
                                     : ndjsonListenFd) = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev);
}

void
Reactor::start()
{
    std::lock_guard<std::mutex> lock(lifecycleMtx);
    if (started)
        return;
    started = true;
    thr = std::thread(&Reactor::loop, this);
}

void
Reactor::shutdownAndJoin()
{
    {
        std::lock_guard<std::mutex> lock(lifecycleMtx);
        if (joined)
            return;
        joined = true;
        if (!started)
            return;
    }
    drainRequested.store(true, std::memory_order_release);
    signalWake();
    thr.join();
}

ReactorStats
Reactor::stats() const
{
    ReactorStats s;
    s.accepted = accepted.load(std::memory_order_relaxed);
    s.openConnections = openConns.load(std::memory_order_relaxed);
    s.epollWakeups = wakeups.load(std::memory_order_relaxed);
    s.bytesIn = bytesIn.load(std::memory_order_relaxed);
    s.bytesOut = bytesOut.load(std::memory_order_relaxed);
    s.ringHighWater = ringHighWater.load(std::memory_order_relaxed);
    s.idleReaped = idleReaped.load(std::memory_order_relaxed);
    s.lineTooLong = lineTooLong.load(std::memory_order_relaxed);
    s.emfileSheds = emfileSheds.load(std::memory_order_relaxed);
    return s;
}

void
Reactor::scheduleFlush(std::shared_ptr<ReactorConn> c)
{
    if (t_current == this) {
        dirty.push_back(std::move(c));
        return;
    }
    {
        std::lock_guard<std::mutex> lock(wakeMtx);
        wakeQueue.push_back(std::move(c));
    }
    signalWake();
}

void
Reactor::signalWake()
{
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wakeFd, &one, sizeof(one));
}

int
Reactor::epollTimeoutMs() const
{
    if (draining)
        return 50;
    bool timers =
        (opts.idleTimeoutMs > 0 || opts.writeTimeoutMs > 0) &&
        !conns.empty();
    return timers ? 100 : -1;
}

void
Reactor::loop()
{
    t_current = this;
    epoll_event evs[kMaxEvents];
    for (;;) {
        if (drainRequested.load(std::memory_order_acquire) &&
            !draining)
            handleDrain();
        if (draining && conns.empty()) {
            std::lock_guard<std::mutex> lock(wakeMtx);
            if (wakeQueue.empty())
                break;
        }
        int n = ::epoll_wait(epfd, evs, kMaxEvents, epollTimeoutMs());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("reactor: epoll_wait: %s", std::strerror(errno));
            break;
        }
        wakeups.fetch_add(1, std::memory_order_relaxed);
        for (int i = 0; i < n; i++) {
            int fd = evs[i].data.fd;
            std::uint32_t e = evs[i].events;
            if (fd == wakeFd) {
                drainWakeFd();
                continue;
            }
            if (fd == ndjsonListenFd) {
                acceptReady(ReactorConn::Kind::Ndjson);
                continue;
            }
            if (fd == httpListenFd) {
                acceptReady(ReactorConn::Kind::Http);
                continue;
            }
            // Look the connection up by fd: an earlier event or
            // flush in this very batch may have closed it, and a
            // stale map miss is the safe signal for that.
            auto it = conns.find(fd);
            if (it == conns.end())
                continue;
            std::shared_ptr<ReactorConn> c = it->second;
            if (e & EPOLLERR) {
                closeConn(c);
                continue;
            }
            // Write first: a drained out-queue frees the cheapest
            // backpressure there is.
            if (e & EPOLLOUT)
                flushConn(c);
            if (c->fd >= 0 && (e & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)))
                readConn(c);
        }
        // Responses enqueued synchronously during this batch (cache
        // hits completing inline) flush here, batched.
        for (std::size_t i = 0; i < dirty.size(); i++) {
            std::shared_ptr<ReactorConn> c = dirty[i];
            flushConn(c);
        }
        dirty.clear();
        sweepTimers();
    }
    t_current = nullptr;
}

void
Reactor::drainWakeFd()
{
    std::uint64_t junk;
    while (::read(wakeFd, &junk, sizeof(junk)) > 0) {
    }
    std::vector<std::shared_ptr<ReactorConn>> flushes;
    {
        std::lock_guard<std::mutex> lock(wakeMtx);
        flushes.swap(wakeQueue);
    }
    for (auto &c : flushes)
        flushConn(c);
}

void
Reactor::acceptReady(ReactorConn::Kind kind)
{
    bool http = kind == ReactorConn::Kind::Http;
    int lfd = http ? httpListenFd : ndjsonListenFd;
    for (;;) {
        if (lfd < 0 || draining)
            return;
        int cfd = ::accept4(lfd, nullptr, nullptr,
                            SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (cfd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EMFILE || errno == ENFILE) {
                shedOverLimit(lfd);
                continue;
            }
            // The listener was shut down (EINVAL) or closed:
            // accepting on this socket is over for good.
            ::epoll_ctl(epfd, EPOLL_CTL_DEL, lfd, nullptr);
            if (http)
                httpListenFd = -1;
            else {
                ndjsonListenFd = -1;
                handler.onAcceptDone();
            }
            return;
        }
        if (fault::armed())
            fault::maybeDelay(fault::Point::AcceptDelay);
        int one = 1;
        ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto c = std::make_shared<ReactorConn>();
        c->fd = cfd;
        c->kind = kind;
        // Fairness identity: the 1-based accept ordinal. Never 0 —
        // 0 is the exempt in-process caller. Observability scrapes
        // never count as protocol clients.
        if (!http)
            c->clientId_ =
                accepted.fetch_add(1, std::memory_order_acq_rel) + 1;
        adopt(std::move(c));
    }
}

/**
 * Transient EMFILE/ENFILE: release the reserved spare fd,
 * accept-and-close the pending connection (the client sees a clean
 * close and retries), then re-reserve the spare. Without this the
 * accept loop would treat fd exhaustion as fatal.
 */
void
Reactor::shedOverLimit(int lfd)
{
    if (spareFd >= 0) {
        ::close(spareFd);
        spareFd = -1;
    }
    int shed = ::accept4(lfd, nullptr, nullptr, SOCK_CLOEXEC);
    if (shed >= 0) {
        ::close(shed);
        if (emfileSheds.fetch_add(1, std::memory_order_relaxed) == 0)
            warn("reactor: fd limit reached; shedding connections "
                 "via the spare fd");
    }
    spareFd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

void
Reactor::adopt(std::shared_ptr<ReactorConn> c)
{
    c->owner = this;
    auto now = Clock::now();
    c->lastActivity = now;
    c->lastWriteOk = now;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.fd = c->fd;
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, c->fd, &ev) != 0) {
        warn("reactor: epoll add: %s", std::strerror(errno));
        ::close(c->fd);
        c->fd = -1;
        return;
    }
    int fd = c->fd;
    conns.emplace(fd, c);
    // Scrapes are not protocol clients: the connection series count
    // NDJSON connections only, so scraping does not perturb them.
    if (c->kind == ReactorConn::Kind::Ndjson)
        openConns.fetch_add(1, std::memory_order_relaxed);
    // Bytes may already be queued; consume them now rather than
    // waiting for the initial edge.
    readConn(c);
}

void
Reactor::readConn(std::shared_ptr<ReactorConn> c)
{
    for (;;) {
        if (c->fd < 0 || c->stopReading)
            return;
        char *p = c->in.writePtr(kReadChunk);
        std::size_t cap = c->in.writeCapacity();
        ssize_t n = ::recv(c->fd, p, cap, 0);
        if (n > 0) {
            bytesIn.fetch_add(static_cast<std::uint64_t>(n),
                              std::memory_order_relaxed);
            c->in.commit(static_cast<std::size_t>(n));
            c->lastActivity = Clock::now();
            std::uint64_t hw = c->in.highWater();
            if (hw > ringHighWater.load(std::memory_order_relaxed))
                ringHighWater.store(hw, std::memory_order_relaxed);
            bool alive = c->kind == ReactorConn::Kind::Ndjson
                             ? scanNdjson(c)
                             : scanHttp(c);
            if (!alive || c->fd < 0)
                return;
            continue;
        }
        if (n == 0) {
            // Orderly half-close: pipelined responses still in
            // flight are delivered before the socket dies.
            c->readEof = true;
            maybeCloseQuiescent(c);
            return;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        closeConn(c);
        return;
    }
}

/** Frame and dispatch every complete NDJSON line buffered on @p c.
 *  False when the connection was closed. */
bool
Reactor::scanNdjson(const std::shared_ptr<ReactorConn> &c)
{
    std::string_view line;
    for (;;) {
        switch (c->in.next(line, opts.maxLineBytes)) {
        case LineScanner::Scan::Line: {
            if (c->stopReading)
                return true;
            if (fault::armed() && fault::fire(fault::Point::ReadDrop))
                continue; // lost in transit, per the fault
            // Blank lines are keep-alive noise, not requests.
            if (line.find_first_not_of(" \t") == std::string_view::npos)
                continue;
            if (drainRequested.load(std::memory_order_acquire)) {
                c->stopReading = true;
                return true;
            }
            if (fault::armed())
                fault::maybeDelay(fault::Point::ConnStall);
            handler.onLine(c, line);
            if (c->isBroken()) {
                closeConn(c);
                return false;
            }
            continue;
        }
        case LineScanner::Scan::NeedMore:
            return true;
        case LineScanner::Scan::Overflow:
            // Answer structurally, then close: past an overrun the
            // stream can no longer be framed into lines.
            lineTooLong.fetch_add(1, std::memory_order_relaxed);
            c->in.reset();
            c->stopReading = true;
            c->closeAfterFlush = true;
            c->send(handler.onLineTooLong());
            return true;
        }
    }
}

/** Minimal HTTP: request line, headers to the blank line, one
 *  handler-rendered response, close after the flush. */
bool
Reactor::scanHttp(const std::shared_ptr<ReactorConn> &c)
{
    std::string_view line;
    for (;;) {
        switch (c->in.next(line, kHttpMaxLine)) {
        case LineScanner::Scan::Line: {
            if (c->stopReading)
                return true;
            if (!c->httpGotRequestLine) {
                c->httpGotRequestLine = true;
                std::size_t sp1 = line.find(' ');
                if (sp1 == std::string_view::npos) {
                    closeConn(c);
                    return false;
                }
                std::size_t sp2 = line.find(' ', sp1 + 1);
                c->httpMethod = std::string(line.substr(0, sp1));
                c->httpPath = std::string(
                    sp2 == std::string_view::npos
                        ? line.substr(sp1 + 1)
                        : line.substr(sp1 + 1, sp2 - sp1 - 1));
                if (sp2 == std::string_view::npos) {
                    // HTTP/0.9-style simple request: no version, no
                    // headers — answer now.
                    respondHttp(c);
                    return true;
                }
            } else if (line.empty()) {
                respondHttp(c);
                return true;
            }
            continue;
        }
        case LineScanner::Scan::NeedMore:
            return true;
        case LineScanner::Scan::Overflow:
            closeConn(c);
            return false;
        }
    }
}

void
Reactor::respondHttp(const std::shared_ptr<ReactorConn> &c)
{
    c->stopReading = true;
    c->closeAfterFlush = true;
    c->send(handler.onHttpRequest(c->httpMethod, c->httpPath));
}

/**
 * Drive the out-queue into the socket with scatter-gather writes
 * until it runs dry or the kernel pushes back (the next EPOLLOUT
 * edge resumes). Runs only on the loop thread; the queue lock is
 * held across the sendmsg — workers only ever hold it for a
 * push_back.
 */
void
Reactor::flushConn(std::shared_ptr<ReactorConn> c)
{
    std::unique_lock<std::mutex> lock(c->mtx);
    c->flushQueued = false;
    if (c->fd < 0)
        return;
    while (!c->out.empty()) {
        iovec iov[kMaxIov];
        std::size_t cnt = 0;
        std::size_t off = c->outHead;
        for (auto it = c->out.begin();
             it != c->out.end() && cnt < kMaxIov; ++it) {
            iov[cnt].iov_base = const_cast<char *>(it->data()) + off;
            iov[cnt].iov_len = it->size() - off;
            off = 0;
            cnt++;
        }
        msghdr mh{};
        mh.msg_iov = iov;
        mh.msg_iovlen = cnt;
        ssize_t n = ::sendmsg(c->fd, &mh, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return; // backpressure: EPOLLOUT will resume
            c->broken.store(true, std::memory_order_relaxed);
            lock.unlock();
            closeConn(c);
            return;
        }
        bytesOut.fetch_add(static_cast<std::uint64_t>(n),
                           std::memory_order_relaxed);
        c->lastWriteOk = Clock::now();
        std::size_t left = static_cast<std::size_t>(n);
        while (left > 0) {
            std::size_t avail = c->out.front().size() - c->outHead;
            if (left >= avail) {
                left -= avail;
                c->out.pop_front();
                c->outHead = 0;
            } else {
                c->outHead += left;
                left = 0;
            }
        }
    }
    // Fully flushed: an empty queue restarts the idle clock and lets
    // a finished (EOF'd / answered-and-closing / drained) connection
    // go.
    c->lastActivity = Clock::now();
    bool close_now = (c->readEof || c->closeAfterFlush) &&
                     c->pending.load(std::memory_order_acquire) == 0;
    lock.unlock();
    if (close_now)
        closeConn(c);
}

void
Reactor::maybeCloseQuiescent(const std::shared_ptr<ReactorConn> &c)
{
    bool outEmpty;
    {
        std::lock_guard<std::mutex> lock(c->mtx);
        outEmpty = c->out.empty();
    }
    if (outEmpty && c->pending.load(std::memory_order_acquire) == 0)
        closeConn(c);
}

void
Reactor::closeConn(std::shared_ptr<ReactorConn> c)
{
    if (c->fd < 0)
        return;
    {
        std::lock_guard<std::mutex> lock(c->mtx);
        c->closedForSend = true;
        c->out.clear();
        c->outHead = 0;
    }
    ::epoll_ctl(epfd, EPOLL_CTL_DEL, c->fd, nullptr);
    ::close(c->fd);
    conns.erase(c->fd);
    c->fd = -1;
    if (c->kind == ReactorConn::Kind::Ndjson)
        openConns.fetch_sub(1, std::memory_order_relaxed);
}

void
Reactor::sweepTimers()
{
    if (opts.idleTimeoutMs <= 0 && opts.writeTimeoutMs <= 0)
        return;
    if (conns.empty())
        return;
    auto now = Clock::now();
    std::vector<std::shared_ptr<ReactorConn>> stalled, idle;
    for (auto &[fd, c] : conns) {
        (void)fd;
        bool outEmpty;
        {
            std::lock_guard<std::mutex> lock(c->mtx);
            outEmpty = c->out.empty();
        }
        if (opts.writeTimeoutMs > 0 && !outEmpty &&
            deadlinePassed(c->lastWriteOk, now, opts.writeTimeoutMs)) {
            stalled.push_back(c);
            continue;
        }
        // A connection still owed responses is waiting on workers,
        // not idling — the reap clock only runs while it is fully
        // quiescent.
        if (opts.idleTimeoutMs > 0 && outEmpty &&
            !c->closeAfterFlush &&
            c->pending.load(std::memory_order_acquire) == 0 &&
            deadlinePassed(c->lastActivity, now, opts.idleTimeoutMs))
            idle.push_back(c);
    }
    for (auto &c : stalled) {
        c->broken.store(true, std::memory_order_relaxed);
        closeConn(c);
    }
    for (auto &c : idle) {
        idleReaped.fetch_add(1, std::memory_order_relaxed);
        closeConn(c);
    }
}

void
Reactor::handleDrain()
{
    draining = true;
    if (ndjsonListenFd >= 0) {
        ::epoll_ctl(epfd, EPOLL_CTL_DEL, ndjsonListenFd, nullptr);
        ndjsonListenFd = -1;
        handler.onAcceptDone();
    }
    if (httpListenFd >= 0) {
        ::epoll_ctl(epfd, EPOLL_CTL_DEL, httpListenFd, nullptr);
        httpListenFd = -1;
    }
    std::vector<std::shared_ptr<ReactorConn>> all;
    all.reserve(conns.size());
    for (auto &kv : conns)
        all.push_back(kv.second);
    for (auto &c : all) {
        c->stopReading = true;
        c->closeAfterFlush = true;
        flushConn(c); // flushes what it can, closes if done
    }
}

// ---------------------------------------------------------------
// ReactorConn
// ---------------------------------------------------------------

void
ReactorConn::send(std::string line)
{
    if (fault::armed())
        fault::maybeDelay(fault::Point::ResponseDelay);
    bool schedule = false;
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (closedForSend)
            return;
        out.push_back(std::move(line));
        if (!flushQueued) {
            flushQueued = true;
            schedule = true;
        }
    }
    if (schedule)
        owner->scheduleFlush(shared_from_this());
}

void
ReactorConn::wake()
{
    bool schedule = false;
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (closedForSend || flushQueued)
            return;
        flushQueued = true;
        schedule = true;
    }
    if (schedule)
        owner->scheduleFlush(shared_from_this());
}

void
ReactorConn::addPending()
{
    pending.fetch_add(1, std::memory_order_acq_rel);
}

void
ReactorConn::decPending()
{
    // The last dispatched response just resolved: the reactor must
    // re-evaluate whether an EOF'd/closing connection can go now.
    if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
        wake();
}

} // namespace gpm
