/**
 * @file
 * Wire protocol of the qborrow server: line-delimited JSON.
 *
 * Every frame - request or response - is one JSON object on one line,
 * terminated by '\n'.  Requests carry an `op` and a client-chosen
 * `id`; every response names the request it answers through the same
 * `id`, so a client may pipeline requests and match answers out of
 * order.  The full message catalogue with worked examples lives in
 * docs/SERVER_PROTOCOL.md.
 *
 * This header also hosts the minimal JSON reader the server (and the
 * `qborrow --connect` client) parse frames with: a strict
 * recursive-descent parser over an immutable value tree.  It exists
 * because the wire format needs PARSING, which the report emitter
 * never did; it covers exactly RFC 8259 - no comments, no trailing
 * commas - and rejects everything else with a located FatalError.
 */

#ifndef QB_SERVER_PROTOCOL_H
#define QB_SERVER_PROTOCOL_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/verifier.h"
#include "support/logging.h"

namespace qb::server {

/** An immutable parsed JSON value. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /**
     * Parse one JSON document from @p text (trailing whitespace
     * allowed, trailing garbage rejected).
     * @throws FatalError with an offset-located message on malformed
     *         input.
     */
    static JsonValue parse(const std::string &text);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    /** Boolean value, or @p dflt when this is not a Bool. */
    bool asBool(bool dflt = false) const;
    /** Numeric value, or @p dflt when this is not a Number. */
    double asNumber(double dflt = 0.0) const;
    /** Numeric value truncated to integer, or @p dflt. */
    std::int64_t asInt(std::int64_t dflt = 0) const;
    /** String value; empty when this is not a String. */
    const std::string &asString() const;

    /** Object member @p key, or nullptr when absent / not an
     *  object. */
    const JsonValue *find(const std::string &key) const;
    /** Array elements; empty for non-arrays. */
    const std::vector<JsonValue> &items() const;

  private:
    friend class JsonParser;
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    /** Object members in document order ({key, value}). */
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/** Request verbs the server understands. */
enum class RequestOp {
    Verify,   ///< submit a program for verification
    Cancel,   ///< cancel an earlier verify on the same connection
    Ping,     ///< liveness probe
    Stats,    ///< service counters, queue depth, per-band backlog
    Shutdown, ///< ask the daemon to drain and exit
    Auth,     ///< present the connection token (TCP transport)
};

/**
 * One observability snapshot for the `stats` op: the service counters
 * that used to be visible only in the daemon's exit line, plus the
 * live load shape - admission-queue depth and the scheduler's
 * per-fairness-band backlog (one band per in-flight request stream,
 * so the band list shows which programs are waiting on SAT work).
 */
struct StatsSnapshot
{
    /** @name Monotonic service counters. @{ */
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t served = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t rejected = 0;
    std::uint64_t errors = 0;
    /** @} */

    /** Admitted-but-unstarted requests right now. */
    std::size_t queueDepth = 0;
    std::size_t queueCapacity = 0;

    /** SAT worker threads in the shared pool. */
    unsigned satWorkers = 0;
    /** Queued runnable units per scheduler fairness band. */
    std::vector<std::pair<unsigned, std::size_t>> bands;

    /** @name Serving-tier additions (each a NEW JSON object in the
     *  stats frame; every pre-existing field keeps its place, so old
     *  clients parse new frames unchanged). @{ */

    /** Seconds since the server started. */
    double uptimeSeconds = 0.0;

    /** Requests seen per op (counted at parse time, whether or not
     *  they were admitted). */
    std::uint64_t opVerify = 0;
    std::uint64_t opCancel = 0;
    std::uint64_t opPing = 0;
    std::uint64_t opStats = 0;
    std::uint64_t opShutdown = 0;
    std::uint64_t opAuth = 0;

    /** One cache's counters (serving/cache.h mirrors). */
    struct Cache
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
    };
    Cache programCache;
    Cache resultCache;
    /** Verifications answered through reused warm sessions. */
    std::uint64_t warmVerifies = 0;

    /** Open connections right now / configured cap (0 = unlimited). */
    std::size_t activeConnections = 0;
    std::size_t connectionLimit = 0;
    /** Connections refused at accept time (limit reached). */
    std::uint64_t connectionsRefused = 0;
    /** Frames rejected before admission for missing/bad auth. */
    std::uint64_t authRejected = 0;
    /** Conditions discharged by the static analyzer across every
     *  non-cache-hit verify served (cache hits replay a stored
     *  report and add nothing). */
    std::uint64_t analysisDischarged = 0;
    /** Of those, conditions the GF(2)-affine dataflow pass proved
     *  (it additionally skips building the condition formula). */
    std::uint64_t analysisAffine = 0;
    /** @} */
};

/**
 * Per-request verification options: the subset of EngineOptions a
 * client may choose per program.  Fields left at their defaults defer
 * to the server's command-line configuration (pool size, lane preset,
 * binary analysis and the static dischargers are server-wide and not
 * per-request).
 */
struct RequestOptions
{
    /** Also check alloc'd clean ancillas; unset = server default. */
    bool clean = false;
    bool cleanSet = false;
    /** Extract counterexamples on Unsafe; unset = server default. */
    bool counterexample = true;
    bool counterexampleSet = false;
    /** Conflict budget per SAT call (-1 = unlimited); unset = server
     *  default. */
    std::int64_t budget = -1;
    bool budgetSet = false;
};

/** One parsed request frame. */
struct Request
{
    RequestOp op = RequestOp::Ping;
    /** Client-chosen correlation id (>= 0); echoed in responses. */
    std::int64_t id = -1;
    /** Verify: QBorrow program text. */
    std::string source;
    /** Verify: program name echoed in the report (optional). */
    std::string name;
    /** Cancel: the id of the verify request to cancel. */
    std::int64_t target = -1;
    /** Auth: the presented token. */
    std::string token;
    RequestOptions options;
};

/** A rejected request frame, with the frame's own `id` when that
 *  field was a valid one (-1 otherwise) so the error reply can name
 *  the request it answers. */
class RequestError : public FatalError
{
  public:
    RequestError(const std::string &msg, std::int64_t id)
        : FatalError(msg), id(id)
    {}

    std::int64_t id;
};

/**
 * Parse one request line.
 * @throws RequestError on malformed JSON, unknown `op`, missing or
 *         ill-typed fields.
 */
Request parseRequest(const std::string &line);

/** @name Response frames (each returns one line WITHOUT the trailing
 *        '\n'; the writer appends it). @{ */
std::string acceptedResponse(std::int64_t id);
std::string errorResponse(std::int64_t id, const std::string &message);
std::string qubitResponse(std::int64_t id,
                          const core::QubitResult &result);
std::string resultResponse(std::int64_t id, const std::string &status,
                           const core::ProgramResult &result,
                           const std::string &program_name);
std::string cancelledResponse(std::int64_t id, std::int64_t target,
                              bool found);
std::string pongResponse(std::int64_t id);
std::string statsResponse(std::int64_t id,
                          const StatsSnapshot &snapshot);
std::string byeResponse(std::int64_t id);
/** `auth` acknowledgment; ok=false precedes the server closing the
 *  connection. */
std::string authResponse(std::int64_t id, bool ok);
/** @} */

} // namespace qb::server

#endif // QB_SERVER_PROTOCOL_H
