/**
 * @file
 * The qborrow server: a long-lived multi-program verification daemon.
 *
 * `qborrow` started life as a batch CLI: every invocation paid worker
 * pool startup, session construction and arena/solver warm-up for one
 * program, then threw it all away.  The Server turns that into a
 * serving system.  It listens on a Unix domain socket, speaks the
 * line-delimited JSON protocol of server/protocol.h, and feeds every
 * submitted program through ONE process-wide core::Scheduler pool
 * created at startup, so across requests:
 *
 *   - pool startup is paid once, not per program;
 *   - concurrent programs' (qubit, condition) queries interleave fairly
 *     on the shared workers (each request gets its own scheduler
 *     fairness band);
 *   - admission is bounded (server/request_queue.h): when the backlog
 *     is full a new request is refused with a `queue full` error
 *     instead of growing memory without bound;
 *   - an in-flight request can be cancelled (per-request
 *     core::CancelSource), and shutdown drains in-flight queries
 *     gracefully before the process exits.
 *
 * Threading model: one accept loop, one reader thread per connection
 * (requests are parsed off the SAT pool), `concurrency` request
 * workers that parse + elaborate programs and drive
 * core::verifyAll() over the shared scheduler, and the scheduler's own
 * `jobs` SAT workers.  Results stream back per qubit as they are
 * produced; responses of concurrent requests on one connection
 * interleave and are matched by `id`.
 *
 * Determinism: verdicts and counterexamples of a request are the same
 * as a one-shot `qborrow` run of the same program with the same
 * options, regardless of what else is queued - counterexamples come
 * from the model of the deterministic solver that decided the
 * condition, and admission order only affects timing fields.
 */

#ifndef QB_SERVER_SERVER_H
#define QB_SERVER_SERVER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/engine.h"

namespace qb::server {

/** Daemon configuration (fixed for the server's lifetime). */
struct ServerOptions
{
    /** Filesystem path of the Unix domain socket to listen on
     *  (empty = no Unix listener; at least one of socketPath /
     *  tcpAddress must be set). */
    std::string socketPath;

    /** TCP "host:port" to also listen on (empty = no TCP listener;
     *  port 0 binds an ephemeral port - see Server::tcpEndpoint()). */
    std::string tcpAddress;

    /**
     * Shared secret for the `auth` op.  When non-empty, the FIRST
     * frame on every connection (either transport) must be
     * `{"op":"auth","token":...}` with this token; any other frame -
     * or a wrong token - is rejected before it can reach the
     * admission queue, and a wrong token closes the connection.
     * Empty = no authentication (the `auth` op still answers ok).
     */
    std::string authToken;

    /** Open connections allowed at once (0 = unlimited).  Excess
     *  accepts are answered with an error line and closed. */
    std::size_t maxConnections = 0;

    /** Admitted verify requests allowed per connection at once
     *  (0 = unlimited). */
    std::size_t maxInflightPerConnection = 0;

    /** Close a connection with no traffic and no in-flight work for
     *  this long (0 = never). */
    unsigned idleTimeoutSeconds = 0;

    /** Serving-tier program cache capacity (0 disables). */
    std::size_t programCacheCapacity = 64;

    /** Serving-tier result cache capacity (0 disables). */
    std::size_t resultCacheCapacity = 256;

    /**
     * Per-request verification defaults (lane preset, budget,
     * counterexamples, binary analysis).  A request's `options`
     * object overrides the overridable subset per program; `jobs` is
     * ignored here - the pool is sized by ServerOptions::jobs.
     */
    core::EngineOptions engine;

    /** Default for requests that do not set `options.clean`. */
    bool checkCleanAncillas = false;

    /** Bound on admitted-but-unstarted requests (backpressure). */
    std::size_t queueCapacity = 16;

    /** Request workers = programs verified concurrently. */
    unsigned concurrency = 2;

    /** SAT workers in the shared scheduler pool (0 = hardware). */
    unsigned jobs = 0;
};

class Server
{
  public:
    /** Monotonic service counters (approximate totals, lock-free). */
    struct Counters
    {
        std::uint64_t connections = 0; ///< accepted connections
        std::uint64_t requests = 0;    ///< admitted verify requests
        std::uint64_t served = 0;      ///< verify requests completed
        std::uint64_t cancelled = 0;   ///< verify requests cancelled
        std::uint64_t rejected = 0;    ///< refused: queue full
        std::uint64_t errors = 0;      ///< malformed/unparsable inputs
    };

    /**
     * Bind and listen on every configured endpoint: a Unix domain
     * socket at options.socketPath (a stale socket file - nothing
     * accepting on it - is replaced; a LIVE one is an error), a TCP
     * socket at options.tcpAddress, or both.
     * @throws FatalError when no endpoint is configured, the socket
     *         path is unwritable / too long for sockaddr_un / already
     *         served by another process, or the TCP address cannot be
     *         resolved or bound.
     */
    explicit Server(ServerOptions options);

    /** shutdown() if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Spawn the accept loop and request workers; returns at once. */
    void start();

    /**
     * start(), then block until a client sends `shutdown` or
     * @p external_stop becomes true (polled; a signal handler may set
     * it), then shutdown().
     */
    void run(const std::atomic<bool> *external_stop = nullptr);

    /**
     * Graceful shutdown: stop accepting, refuse new admissions, let
     * the workers DRAIN every admitted request (in-flight queries
     * complete and their results are delivered), then close all
     * connections and remove the socket file.  Idempotent.
     */
    void shutdown();

    /** Has a client's `shutdown` request (or run()'s stop) fired? */
    bool stopRequested() const;

    const std::string &socketPath() const;
    /** Actual bound TCP endpoint ("host:port", with the kernel-chosen
     *  port when 0 was configured); empty when TCP is off. */
    std::string tcpEndpoint() const;
    Counters counters() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace qb::server

#endif // QB_SERVER_SERVER_H
