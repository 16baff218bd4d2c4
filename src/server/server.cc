#include "server/server.h"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "server/protocol.h"
#include "server/request_queue.h"
#include "serving/serving.h"
#include "serving/transport.h"
#include "support/logging.h"
#include "support/strings.h"

namespace qb::server {

namespace {

/** A request line longer than this (64 MiB) closes the connection:
 *  the reader buffers whole lines, and an endless unterminated line
 *  would otherwise grow the daemon's memory without bound. */
constexpr std::size_t kMaxLineBytes = 64u << 20;

} // namespace

/**
 * One accepted client connection.  The fd is written by the reader
 * thread (acks, errors) and by request workers (streamed results)
 * concurrently, serialized by writeMutex; it is closed by the
 * destructor, which runs only when the reader AND every queued
 * request referencing this connection are done with it.
 */
struct Connection
{
    int fd = -1;
    std::uint64_t id = 0;
    std::mutex writeMutex;
    std::atomic<bool> open{true};
    /** Has this connection presented the server's auth token?  Only
     *  consulted when a token is configured. */
    std::atomic<bool> authed{false};
    /** Admitted verify requests currently queued or running. */
    std::atomic<std::size_t> inflight{0};
    /** steady_clock ticks of the last read or successful write; the
     *  idle sweep compares against it (skipping connections with
     *  in-flight work). */
    std::atomic<std::chrono::steady_clock::rep> lastActivity{0};

    void
    touch()
    {
        lastActivity.store(std::chrono::steady_clock::now()
                               .time_since_epoch()
                               .count(),
                           std::memory_order_relaxed);
    }

    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    /** Write one protocol line (appends '\n').  A failed write - the
     *  peer is gone, or stopped reading for longer than the send
     *  timeout - marks the connection closed; later sends become
     *  no-ops rather than errors. */
    void
    sendLine(const std::string &line)
    {
        const std::lock_guard<std::mutex> guard(writeMutex);
        sendLineLocked(line);
    }

    /** sendLine() body; the caller holds writeMutex. */
    void
    sendLineLocked(const std::string &line)
    {
        if (!open.load(std::memory_order_acquire))
            return;
        std::string frame = line;
        frame += '\n';
        std::size_t sent = 0;
        while (sent < frame.size()) {
            const ssize_t n =
                ::send(fd, frame.data() + sent, frame.size() - sent,
                       MSG_NOSIGNAL);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                // EAGAIN here means the SO_SNDTIMEO send timeout
                // expired with the peer's buffer still full: the
                // client stopped reading.  Treat it like a
                // disconnect - a stalled client must not wedge a
                // request worker (or shutdown) forever.
                open.store(false, std::memory_order_release);
                return;
            }
            sent += static_cast<std::size_t>(n);
        }
        touch();
    }
};

struct Server::Impl
{
    ServerOptions options;
    /** Bound endpoints the accept loop polls (Unix socket, TCP, or
     *  both - see serving/transport.h). */
    std::vector<std::unique_ptr<serving::Listener>> listeners;
    /** Actual bound TCP "host:port" (empty when TCP is off). */
    std::string tcpEndpointStr;

    /** THE process-wide SAT worker pool, shared by every request. */
    std::shared_ptr<core::Scheduler> scheduler;
    RequestQueue queue;
    /** Warm-cache layer between the workers and the engine. */
    serving::ServingTier tier;
    const std::chrono::steady_clock::time_point startTime =
        std::chrono::steady_clock::now();

    std::atomic<bool> started{false};
    std::atomic<bool> stopping{false};
    std::atomic<bool> stopRequested{false};
    bool shutdownDone = false; ///< guarded by lifecycleMutex
    std::mutex lifecycleMutex;
    std::condition_variable stopCv;

    std::thread acceptThread;
    std::vector<std::thread> workerThreads;

    std::mutex connectionsMutex;
    std::vector<std::shared_ptr<Connection>> connections;
    /** Reader threads by connection id; finished ones are reaped by
     *  the accept loop (reapFinishedReadersLocked). */
    std::map<std::uint64_t, std::thread> readerThreads;
    std::vector<std::uint64_t> finishedReaders;
    std::uint64_t nextConnectionId = 1;

    /** Admitted (queued or running) requests by (connection, id):
     *  the lookup table `cancel` ops and disconnects fire into. */
    std::mutex inflightMutex;
    std::map<std::pair<std::uint64_t, std::int64_t>,
             std::shared_ptr<core::CancelSource>>
        inflight;

    /** Rotating fairness-band allocator (band 0 is never handed
     *  out: it is the default band of non-server work). */
    std::atomic<unsigned> bandCounter{0};

    std::atomic<std::uint64_t> statConnections{0};
    std::atomic<std::uint64_t> statRequests{0};
    std::atomic<std::uint64_t> statServed{0};
    std::atomic<std::uint64_t> statCancelled{0};
    std::atomic<std::uint64_t> statRejected{0};
    std::atomic<std::uint64_t> statErrors{0};
    std::atomic<std::uint64_t> statConnRefused{0};
    std::atomic<std::uint64_t> statAuthRejected{0};
    std::atomic<std::uint64_t> statOpVerify{0};
    std::atomic<std::uint64_t> statOpCancel{0};
    std::atomic<std::uint64_t> statOpPing{0};
    std::atomic<std::uint64_t> statOpStats{0};
    std::atomic<std::uint64_t> statOpShutdown{0};
    std::atomic<std::uint64_t> statOpAuth{0};
    /** Conditions the static analyzer discharged, summed over every
     *  verify the SAT tier actually ran (result-cache hits replay a
     *  stored report whose discharges were counted when stored). */
    std::atomic<std::uint64_t> statAnalysisDischarged{0};
    /** Of those, discharges the GF(2)-affine dataflow pass proved
     *  (the only pass that also skips building the condition). */
    std::atomic<std::uint64_t> statAnalysisAffine{0};

    explicit Impl(ServerOptions opts)
        : options(std::move(opts)), queue(options.queueCapacity),
          tier(serving::ServingOptions{options.programCacheCapacity,
                                       options.resultCacheCapacity})
    {}

    void createListeners();
    void acceptLoop();
    void acceptOne(serving::Listener &listener);
    void sweepIdleConnections();
    void reapFinishedReadersLocked();
    void readerLoop(std::shared_ptr<Connection> connection);
    void handleLine(const std::shared_ptr<Connection> &connection,
                    const std::string &line);
    void workerLoop();
    void serveRequest(QueuedRequest item);
    core::EngineOptions engineOptionsFor(const RequestOptions &req);
    void dropInflight(std::uint64_t connection_id, std::int64_t id);
    void cancelConnection(std::uint64_t connection_id);
    void requestStop();
};

void
Server::Impl::createListeners()
{
    if (options.socketPath.empty() && options.tcpAddress.empty())
        fatal("server: no endpoint configured (need a socket path "
              "or a TCP address)");
    if (!options.socketPath.empty())
        listeners.push_back(
            serving::makeUnixListener(options.socketPath));
    if (!options.tcpAddress.empty()) {
        listeners.push_back(
            serving::makeTcpListener(options.tcpAddress));
        tcpEndpointStr = listeners.back()->boundAddress();
    }
}

void
Server::Impl::acceptLoop()
{
    std::vector<pollfd> pfds(listeners.size());
    while (!stopping.load(std::memory_order_acquire)) {
        for (std::size_t i = 0; i < listeners.size(); ++i)
            pfds[i] = pollfd{listeners[i]->fd(), POLLIN, 0};
        const int ready =
            ::poll(pfds.data(), pfds.size(), 200);
        sweepIdleConnections();
        if (ready <= 0)
            continue; // timeout (re-check stopping) or EINTR
        for (std::size_t i = 0; i < listeners.size(); ++i)
            if (pfds[i].revents & POLLIN)
                acceptOne(*listeners[i]);
    }
}

void
Server::Impl::acceptOne(serving::Listener &listener)
{
    const int fd = listener.acceptConnection();
    if (fd < 0)
        return;
    // Global connection limit: refuse with a parseable error line
    // instead of letting readers (one thread each) pile up.
    if (options.maxConnections != 0) {
        std::size_t active;
        {
            const std::lock_guard<std::mutex> guard(connectionsMutex);
            active = connections.size();
        }
        if (active >= options.maxConnections) {
            ++statConnRefused;
            const std::string line =
                errorResponse(
                    -1, format("connection limit (%zu) reached; "
                               "retry later",
                               options.maxConnections)) +
                "\n";
            ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
            ::close(fd);
            return;
        }
    }
    // Bounded sends: a client that stops reading makes send()
    // fail with EAGAIN after this long instead of blocking a
    // request worker indefinitely (see sendLineLocked).
    timeval send_timeout{};
    send_timeout.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    connection->touch();
    ++statConnections;
    {
        const std::lock_guard<std::mutex> guard(connectionsMutex);
        connection->id = nextConnectionId++;
        reapFinishedReadersLocked();
        readerThreads.emplace(
            connection->id,
            std::thread(
                [this, connection] { readerLoop(connection); }));
        connections.push_back(connection);
    }
}

/** Close connections idle past the configured timeout.  A connection
 *  with in-flight work is never idle, however long its SAT query runs;
 *  shutting the socket down (not closing the fd) kicks the reader,
 *  which owns the ordinary teardown path. */
void
Server::Impl::sweepIdleConnections()
{
    if (options.idleTimeoutSeconds == 0)
        return;
    const auto now = std::chrono::steady_clock::now();
    const std::lock_guard<std::mutex> guard(connectionsMutex);
    for (const auto &connection : connections) {
        if (connection->inflight.load(std::memory_order_acquire) != 0)
            continue;
        const auto last = std::chrono::steady_clock::time_point(
            std::chrono::steady_clock::duration(
                connection->lastActivity.load(
                    std::memory_order_relaxed)));
        if (now - last >=
            std::chrono::seconds(options.idleTimeoutSeconds)) {
            connection->open.store(false, std::memory_order_release);
            ::shutdown(connection->fd, SHUT_RDWR);
        }
    }
}

/** Join reader threads whose connections already ended, so a
 *  long-lived daemon does not accumulate terminated-but-joinable
 *  threads (and their stacks) across many short connections.
 *  Caller holds connectionsMutex. */
void
Server::Impl::reapFinishedReadersLocked()
{
    for (const std::uint64_t id : finishedReaders) {
        const auto it = readerThreads.find(id);
        if (it != readerThreads.end()) {
            it->second.join(); // at most momentarily still running
            readerThreads.erase(it);
        }
    }
    finishedReaders.clear();
}

void
Server::Impl::readerLoop(std::shared_ptr<Connection> connection)
{
    std::string buffer;
    char chunk[4096];
    while (true) {
        const ssize_t n =
            ::read(connection->fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break; // EOF, error, or shutdown() closed the socket
        connection->touch();
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t eol;
        while ((eol = buffer.find('\n')) != std::string::npos) {
            std::string line = buffer.substr(0, eol);
            buffer.erase(0, eol + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (!line.empty())
                handleLine(connection, line);
        }
        if (buffer.size() > kMaxLineBytes) {
            connection->sendLine(errorResponse(
                -1, "request line exceeds 64 MiB; closing"));
            ++statErrors;
            break;
        }
    }
    // The peer is gone (or the server is closing): fire the stop flag
    // of every request this connection still has in flight so the
    // pool stops burning conflicts on answers nobody will read.
    connection->open.store(false, std::memory_order_release);
    cancelConnection(connection->id);
    const std::lock_guard<std::mutex> guard(connectionsMutex);
    std::erase(connections, connection);
    finishedReaders.push_back(connection->id);
}

void
Server::Impl::handleLine(
    const std::shared_ptr<Connection> &connection,
    const std::string &line)
{
    Request request;
    try {
        request = parseRequest(line);
    } catch (const std::exception &e) {
        ++statErrors;
        const auto *bad = dynamic_cast<const RequestError *>(&e);
        connection->sendLine(errorResponse(bad ? bad->id : -1, e.what()));
        return; // a bad frame never stops the service
    }
    switch (request.op) {
      case RequestOp::Verify: ++statOpVerify; break;
      case RequestOp::Cancel: ++statOpCancel; break;
      case RequestOp::Ping: ++statOpPing; break;
      case RequestOp::Stats: ++statOpStats; break;
      case RequestOp::Shutdown: ++statOpShutdown; break;
      case RequestOp::Auth: ++statOpAuth; break;
    }
    if (request.op == RequestOp::Auth) {
        if (options.authToken.empty() ||
            request.token == options.authToken) {
            connection->authed.store(true,
                                     std::memory_order_release);
            connection->sendLine(authResponse(request.id, true));
        } else {
            // Wrong token: say so, then close.  The reject never
            // reaches the admission queue.
            ++statAuthRejected;
            connection->sendLine(authResponse(request.id, false));
            connection->open.store(false, std::memory_order_release);
            ::shutdown(connection->fd, SHUT_RDWR);
        }
        return;
    }
    if (!options.authToken.empty() &&
        !connection->authed.load(std::memory_order_acquire)) {
        // Every other op on an unauthenticated connection is
        // rejected before admission; the connection stays open so
        // the client can still send the auth frame.
        ++statAuthRejected;
        connection->sendLine(errorResponse(
            request.id, "authentication required (send "
                        "{\"op\": \"auth\", \"token\": ...} first)"));
        return;
    }
    switch (request.op) {
      case RequestOp::Auth: // handled above
      case RequestOp::Ping:
        connection->sendLine(pongResponse(request.id));
        return;
      case RequestOp::Stats: {
        // Live observability (ROADMAP follow-on): the exit-line
        // counters on demand, plus queue depth and the scheduler's
        // per-band backlog so clients can see load before submitting.
        StatsSnapshot snapshot;
        snapshot.connections = statConnections.load();
        snapshot.requests = statRequests.load();
        snapshot.served = statServed.load();
        snapshot.cancelled = statCancelled.load();
        snapshot.rejected = statRejected.load();
        snapshot.errors = statErrors.load();
        snapshot.queueDepth = queue.size();
        snapshot.queueCapacity = queue.capacity();
        // The pool exists from start() on; readers only run after it.
        if (scheduler) {
            snapshot.satWorkers = scheduler->workers();
            snapshot.bands = scheduler->bandBacklog();
        }
        snapshot.uptimeSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - startTime)
                .count();
        snapshot.opVerify = statOpVerify.load();
        snapshot.opCancel = statOpCancel.load();
        snapshot.opPing = statOpPing.load();
        snapshot.opStats = statOpStats.load();
        snapshot.opShutdown = statOpShutdown.load();
        snapshot.opAuth = statOpAuth.load();
        const auto fill = [](StatsSnapshot::Cache &dst,
                             const serving::CacheCounters &src) {
            dst.hits = src.hits;
            dst.misses = src.misses;
            dst.evictions = src.evictions;
            dst.entries = src.entries;
        };
        fill(snapshot.programCache, tier.programCounters());
        fill(snapshot.resultCache, tier.resultCounters());
        snapshot.warmVerifies = tier.warmVerifies();
        {
            const std::lock_guard<std::mutex> guard(connectionsMutex);
            snapshot.activeConnections = connections.size();
        }
        snapshot.connectionLimit = options.maxConnections;
        snapshot.connectionsRefused = statConnRefused.load();
        snapshot.authRejected = statAuthRejected.load();
        snapshot.analysisDischarged = statAnalysisDischarged.load();
        snapshot.analysisAffine = statAnalysisAffine.load();
        connection->sendLine(statsResponse(request.id, snapshot));
        return;
      }
      case RequestOp::Shutdown:
        connection->sendLine(byeResponse(request.id));
        requestStop();
        return;
      case RequestOp::Cancel: {
        std::shared_ptr<core::CancelSource> cancel;
        {
            const std::lock_guard<std::mutex> guard(inflightMutex);
            const auto it = inflight.find(
                {connection->id, request.target});
            if (it != inflight.end())
                cancel = it->second;
        }
        if (cancel)
            cancel->requestCancel();
        connection->sendLine(cancelledResponse(
            request.id, request.target, cancel != nullptr));
        return;
      }
      case RequestOp::Verify:
        break;
    }

    // Per-connection in-flight bound: one client cannot fill the
    // whole admission queue by itself.
    if (options.maxInflightPerConnection != 0 &&
        connection->inflight.load(std::memory_order_acquire) >=
            options.maxInflightPerConnection) {
        ++statRejected;
        connection->sendLine(errorResponse(
            request.id,
            format("too many in-flight requests on this connection "
                   "(limit %zu); retry later",
                   options.maxInflightPerConnection)));
        return;
    }

    QueuedRequest item;
    item.request = std::move(request);
    item.cancel = std::make_shared<core::CancelSource>();
    item.connection = connection;
    {
        // Register BEFORE admission so a cancel can hit a request
        // that is still waiting in the queue.  The inflight map is
        // daemon-global: never send (which can block on a stalled
        // peer for the whole send timeout) while holding its lock.
        bool duplicate;
        {
            const std::lock_guard<std::mutex> guard(inflightMutex);
            const auto key =
                std::make_pair(connection->id, item.request.id);
            duplicate =
                !inflight.emplace(key, item.cancel).second;
        }
        if (duplicate) {
            ++statErrors;
            connection->sendLine(errorResponse(
                item.request.id,
                "a request with this id is already in flight on "
                "this connection"));
            return;
        }
    }
    const std::int64_t id = item.request.id;
    // Admission and its ack happen under the connection's write lock:
    // a worker can pop the request the instant tryPush returns, and
    // its first qubit/result frame must not beat the `accepted` ack
    // onto the wire (SERVER_PROTOCOL.md's ordering guarantee).
    bool admitted;
    {
        const std::lock_guard<std::mutex> guard(
            connection->writeMutex);
        admitted = queue.tryPush(std::move(item));
        if (admitted) {
            ++statRequests;
            connection->inflight.fetch_add(
                1, std::memory_order_acq_rel);
            connection->sendLineLocked(acceptedResponse(id));
        }
    }
    if (!admitted) {
        dropInflight(connection->id, id);
        ++statRejected;
        connection->sendLine(errorResponse(
            id, queue.closed()
                    ? "server is shutting down"
                    : format("queue full (capacity %zu); retry later",
                             queue.capacity())));
    }
}

core::EngineOptions
Server::Impl::engineOptionsFor(const RequestOptions &request)
{
    const core::EngineOptions &base = options.engine;
    core::EngineOptions chosen = base;
    chosen.jobs = options.jobs;
    chosen.lane.wantCounterexample = request.counterexampleSet
        ? request.counterexample
        : base.lane.wantCounterexample;
    chosen.lane.conflictBudget =
        request.budgetSet ? request.budget : base.lane.conflictBudget;
    // Distinct band per request: the pool round-robins bands, so one
    // program's backlog cannot starve another's first query.
    chosen.fairnessBand =
        1 + (bandCounter.fetch_add(1, std::memory_order_relaxed) &
             0x3ff);
    return chosen;
}

void
Server::Impl::dropInflight(std::uint64_t connection_id,
                           std::int64_t id)
{
    const std::lock_guard<std::mutex> guard(inflightMutex);
    inflight.erase({connection_id, id});
}

void
Server::Impl::cancelConnection(std::uint64_t connection_id)
{
    std::vector<std::shared_ptr<core::CancelSource>> to_cancel;
    {
        const std::lock_guard<std::mutex> guard(inflightMutex);
        for (const auto &[key, cancel] : inflight)
            if (key.first == connection_id)
                to_cancel.push_back(cancel);
    }
    for (const auto &cancel : to_cancel)
        cancel->requestCancel();
}

void
Server::Impl::workerLoop()
{
    while (auto item = queue.pop())
        serveRequest(std::move(*item));
}

void
Server::Impl::serveRequest(QueuedRequest item)
{
    const std::shared_ptr<Connection> connection = item.connection;
    const Request &request = item.request;
    const std::string name =
        request.name.empty() ? format("request-%lld",
                                      static_cast<long long>(
                                          request.id))
                             : request.name;
    const auto finish = [&] {
        dropInflight(connection->id, request.id);
        connection->inflight.fetch_sub(1,
                                       std::memory_order_acq_rel);
        connection->touch();
    };
    // A request whose connection already died is moot.
    if (!connection->open.load(std::memory_order_acquire))
        item.cancel->requestCancel();
    if (item.cancel->cancelRequested()) {
        // Cancelled while still queued: settle without touching the
        // pool.
        finish();
        ++statCancelled;
        connection->sendLine(resultResponse(
            request.id, "cancelled", core::ProgramResult{}, name));
        return;
    }

    const core::EngineOptions engine_options =
        engineOptionsFor(request.options);
    const bool clean = request.options.cleanSet
        ? request.options.clean
        : options.checkCleanAncillas;
    const std::int64_t id = request.id;
    const auto &cancel = item.cancel;
    const core::ResultObserver observer =
        [&connection, &cancel, id](const core::QubitResult &r) {
            connection->sendLine(qubitResponse(id, r));
            // A send that timed out (stalled client) or failed (gone
            // client) closed the connection: stop burning the pool on
            // a program whose answers nobody will read.
            if (!connection->open.load(std::memory_order_acquire))
                cancel->requestCancel();
        };
    // The serving tier owns elaboration (hash-consed per source),
    // memoized verdicts and warm sessions; a result-cache hit replays
    // the stored qubit frames through the observer and never touches
    // the pool.  Elaboration of a MISS runs on this worker thread,
    // off the SAT pool, as before.
    serving::ServingTier::Outcome outcome;
    try {
        outcome = tier.verify(
            request.source, engine_options, clean,
            serving::ServingTier::optionsFingerprint(engine_options,
                                                     clean),
            observer, scheduler, item.cancel);
    } catch (const std::exception &e) {
        finish();
        ++statErrors;
        connection->sendLine(errorResponse(request.id, e.what()));
        return;
    }
    if (outcome.failed) {
        // A bad program fails ITS request; the server keeps serving.
        finish();
        ++statErrors;
        connection->sendLine(
            errorResponse(request.id, outcome.error));
        return;
    }
    finish();
    // Result-cache hits replay a stored report whose discharges were
    // counted when the report was produced; only fresh runs add.
    if (!outcome.fromResultCache &&
        outcome.result.analysisTotals.discharged > 0)
        statAnalysisDischarged += static_cast<std::uint64_t>(
            outcome.result.analysisTotals.discharged);
    if (!outcome.fromResultCache &&
        outcome.result.analysisTotals.affine > 0)
        statAnalysisAffine += static_cast<std::uint64_t>(
            outcome.result.analysisTotals.affine);
    const bool was_cancelled = item.cancel->cancelRequested();
    if (was_cancelled)
        ++statCancelled;
    else
        ++statServed;
    connection->sendLine(resultResponse(
        request.id, was_cancelled ? "cancelled" : "done",
        outcome.result, name));
}

void
Server::Impl::requestStop()
{
    stopRequested.store(true, std::memory_order_release);
    stopCv.notify_all();
}

Server::Server(ServerOptions options)
    : impl(std::make_unique<Impl>(std::move(options)))
{
    impl->createListeners();
}

Server::~Server()
{
    shutdown();
}

void
Server::start()
{
    if (impl->started.exchange(true))
        return;
    // The ONE process-wide pool: created before the first request,
    // alive until shutdown, so every request's sessions reuse warm
    // workers instead of paying pool startup.
    impl->scheduler =
        std::make_shared<core::Scheduler>(impl->options.jobs);
    unsigned workers = impl->options.concurrency;
    if (workers == 0)
        workers = 1;
    impl->workerThreads.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        impl->workerThreads.emplace_back(
            [this] { impl->workerLoop(); });
    impl->acceptThread =
        std::thread([this] { impl->acceptLoop(); });
}

void
Server::run(const std::atomic<bool> *external_stop)
{
    start();
    std::unique_lock<std::mutex> lock(impl->lifecycleMutex);
    while (!impl->stopRequested.load(std::memory_order_acquire) &&
           !(external_stop &&
             external_stop->load(std::memory_order_acquire))) {
        impl->stopCv.wait_for(
            lock, std::chrono::milliseconds(100), [&] {
                return impl->stopRequested.load(
                    std::memory_order_acquire);
            });
    }
    lock.unlock();
    shutdown();
}

void
Server::shutdown()
{
    {
        const std::lock_guard<std::mutex> guard(impl->lifecycleMutex);
        if (impl->shutdownDone)
            return;
        impl->shutdownDone = true;
    }
    impl->requestStop();
    impl->stopping.store(true, std::memory_order_release);
    if (impl->acceptThread.joinable())
        impl->acceptThread.join();

    // Drain: refuse new admissions, let the workers finish every
    // admitted request and deliver its result, then disconnect.
    impl->queue.close();
    for (std::thread &t : impl->workerThreads)
        t.join();
    impl->workerThreads.clear();

    std::map<std::uint64_t, std::thread> readers;
    {
        const std::lock_guard<std::mutex> guard(
            impl->connectionsMutex);
        for (const auto &connection : impl->connections)
            ::shutdown(connection->fd, SHUT_RDWR);
        readers.swap(impl->readerThreads);
        impl->finishedReaders.clear();
    }
    for (auto &[id, thread] : readers)
        thread.join();

    for (const auto &listener : impl->listeners)
        listener->close();
}

bool
Server::stopRequested() const
{
    return impl->stopRequested.load(std::memory_order_acquire);
}

const std::string &
Server::socketPath() const
{
    return impl->options.socketPath;
}

std::string
Server::tcpEndpoint() const
{
    return impl->tcpEndpointStr;
}

Server::Counters
Server::counters() const
{
    Counters c;
    c.connections = impl->statConnections.load();
    c.requests = impl->statRequests.load();
    c.served = impl->statServed.load();
    c.cancelled = impl->statCancelled.load();
    c.rejected = impl->statRejected.load();
    c.errors = impl->statErrors.load();
    return c;
}

} // namespace qb::server
