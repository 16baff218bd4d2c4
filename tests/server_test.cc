/**
 * @file
 * Tests for the qborrow server: the JSON wire protocol, the bounded
 * admission queue, and the daemon end-to-end over real Unix domain
 * sockets - concurrent clients, result parity with one-shot runs,
 * mid-program cancellation, queue-full backpressure, bad-request
 * resilience and graceful shutdown.  Built as its own binary with the
 * ctest label `server`; the ASan and TSan CI jobs run it explicitly
 * (the daemon is the most thread-heavy subsystem in the tree).
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <netdb.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "circuits/qbr_text.h"
#include "core/engine.h"
#include "core/report.h"
#include "lang/elaborate.h"
#include "server/protocol.h"
#include "server/request_queue.h"
#include "server/server.h"
#include "serving/cache.h"
#include "serving/serving.h"
#include "support/logging.h"
#include "support/strings.h"

namespace qb::server {
namespace {

// ========================================================== JSON parser

TEST(ServerDefaults, LibraryCliAndDaemonShareOneDefaultFingerprint)
{
    // The default lane is declared once, in core::EngineOptions:
    // qborrow starts from EngineOptions{}, and the daemon's
    // per-request defaults start from ServerOptions{}.
    const auto fp = [](const core::EngineOptions &o) {
        return serving::ServingTier::optionsFingerprint(o, false);
    };
    const std::string library = fp(core::EngineOptions{});
    EXPECT_EQ(library, fp(ServerOptions{}.engine));
    // That default is lane B's preset.
    EXPECT_EQ(library, fp(core::EngineOptions::singleLane(
                           core::VerifierOptions::laneB())));
    EXPECT_NE(library, fp(core::EngineOptions::singleLane(
                           core::VerifierOptions::laneA())));
}

TEST(JsonValue, ParsesScalarsObjectsAndArrays)
{
    const JsonValue doc = JsonValue::parse(
        R"({"a": 1, "b": -2.5, "c": true, "d": null, )"
        R"("e": "x\n\"y\"", "f": [1, 2, 3], "g": {"h": false}})");
    ASSERT_EQ(JsonValue::Kind::Object, doc.kind());
    EXPECT_EQ(1, doc.find("a")->asInt());
    EXPECT_DOUBLE_EQ(-2.5, doc.find("b")->asNumber());
    EXPECT_TRUE(doc.find("c")->asBool());
    EXPECT_TRUE(doc.find("d")->isNull());
    EXPECT_EQ("x\n\"y\"", doc.find("e")->asString());
    ASSERT_EQ(3u, doc.find("f")->items().size());
    EXPECT_EQ(2, doc.find("f")->items()[1].asInt());
    EXPECT_FALSE(doc.find("g")->find("h")->asBool(true));
    EXPECT_EQ(nullptr, doc.find("missing"));
}

TEST(JsonValue, ParsesUnicodeEscapes)
{
    EXPECT_EQ("\xc3\xa9",
              JsonValue::parse(R"("\u00e9")").asString());
    // Surrogate pair: U+1F600.
    EXPECT_EQ("\xf0\x9f\x98\x80",
              JsonValue::parse(R"("\ud83d\ude00")").asString());
}

TEST(JsonValue, AsIntRejectsOutOfRangeNumbers)
{
    // Unchecked double->int64 casts on wire input would be UB.
    EXPECT_EQ(-1, JsonValue::parse("1e300").asInt(-1));
    EXPECT_EQ(-1, JsonValue::parse("-1e300").asInt(-1));
    EXPECT_EQ(7, JsonValue::parse("7").asInt(-1));
    EXPECT_EQ(-7, JsonValue::parse("-7.9").asInt(-1));
}

TEST(JsonValue, RejectsMalformedDocuments)
{
    const char *bad[] = {
        "",           "{",           "[1,]",       "{\"a\":}",
        "{'a': 1}",   "tru",         "01x",        "\"unterminated",
        "{} garbage", "{\"a\" 1}",   "[1 2]",      "\"\\u12\"",
        "\"\\ud800\"" /* unpaired surrogate */,
    };
    for (const char *text : bad)
        EXPECT_THROW(JsonValue::parse(text), FatalError)
            << "accepted: " << text;
}

TEST(JsonValue, RoundTripsReportJson)
{
    // The compact program report must parse with the wire parser and
    // agree with the pretty form field-for-field.
    core::ProgramResult result;
    core::QubitResult qubit;
    qubit.qubit = 3;
    qubit.name = "a[3]";
    qubit.verdict = core::Verdict::Unsafe;
    qubit.failed = core::FailedCondition::ZeroRestoration;
    qubit.counterexample = std::vector<bool>{true, false, true};
    result.qubits.push_back(qubit);
    const std::string compact =
        core::toJsonCompact(result, "prog.qbr");
    EXPECT_EQ(std::string::npos, compact.find('\n'))
        << "compact report must be one line";
    const JsonValue parsed = JsonValue::parse(compact);
    EXPECT_EQ("prog.qbr", parsed.find("program")->asString());
    EXPECT_FALSE(parsed.find("all_safe")->asBool(true));
    const JsonValue pretty =
        JsonValue::parse(core::toJson(result, "prog.qbr"));
    EXPECT_EQ(pretty.find("counts")->find("unsafe")->asInt(),
              parsed.find("counts")->find("unsafe")->asInt());
    const auto &q = parsed.find("qubits")->items();
    ASSERT_EQ(1u, q.size());
    EXPECT_EQ("a[3]", q[0].find("name")->asString());
    ASSERT_EQ(3u, q[0].find("counterexample")->items().size());
    EXPECT_EQ(1, q[0].find("counterexample")->items()[0].asInt());
}

// ============================================================= requests

TEST(ParseRequest, VerifyWithOptions)
{
    const Request r = parseRequest(
        R"({"op": "verify", "id": 7, "name": "p", "source": "X[q];",)"
        R"( "options": {"clean": true,)"
        R"( "budget": 500, "counterexample": false}})");
    EXPECT_EQ(RequestOp::Verify, r.op);
    EXPECT_EQ(7, r.id);
    EXPECT_EQ("p", r.name);
    EXPECT_EQ("X[q];", r.source);
    EXPECT_TRUE(r.options.clean);
    EXPECT_TRUE(r.options.cleanSet);
    EXPECT_EQ(500, r.options.budget);
    EXPECT_TRUE(r.options.budgetSet);
    EXPECT_FALSE(r.options.counterexample);
    EXPECT_TRUE(r.options.counterexampleSet);
}

TEST(ParseRequest, DefaultsAreUnset)
{
    const Request r = parseRequest(
        R"({"op": "verify", "id": 0, "source": ""})");
    EXPECT_FALSE(r.options.cleanSet);
    EXPECT_FALSE(r.options.budgetSet);
    EXPECT_FALSE(r.options.counterexampleSet);
}

TEST(ParseRequest, StatsOpParses)
{
    const Request r =
        parseRequest(R"({"op": "stats", "id": 12})");
    EXPECT_EQ(RequestOp::Stats, r.op);
    EXPECT_EQ(12, r.id);
}

TEST(StatsResponse, SerializesSnapshot)
{
    StatsSnapshot snapshot;
    snapshot.connections = 3;
    snapshot.served = 2;
    snapshot.queueDepth = 1;
    snapshot.queueCapacity = 16;
    snapshot.satWorkers = 4;
    snapshot.bands = {{1, 5}, {7, 0}};
    const JsonValue doc =
        JsonValue::parse(statsResponse(9, snapshot));
    EXPECT_EQ("stats", doc.find("type")->asString());
    EXPECT_EQ(9, doc.find("id")->asInt());
    EXPECT_EQ(3, doc.find("counters")->find("connections")->asInt());
    EXPECT_EQ(2, doc.find("counters")->find("served")->asInt());
    EXPECT_EQ(1, doc.find("queue")->find("depth")->asInt());
    EXPECT_EQ(16, doc.find("queue")->find("capacity")->asInt());
    EXPECT_EQ(4, doc.find("scheduler")->find("workers")->asInt());
    const auto &bands =
        doc.find("scheduler")->find("bands")->items();
    ASSERT_EQ(2u, bands.size());
    EXPECT_EQ(1, bands[0].find("band")->asInt());
    EXPECT_EQ(5, bands[0].find("backlog")->asInt());
}

TEST(ParseRequest, RejectsBadFrames)
{
    const char *bad[] = {
        "not json at all",
        "[]",                                        // not an object
        R"({"id": 1})",                              // no op
        R"({"op": "explode", "id": 1})",             // unknown op
        R"({"op": "verify", "id": 1})",              // no source
        R"({"op": "verify", "source": "X[q];"})",    // no id
        R"({"op": "verify", "id": -4, "source": ""})",
        R"({"op": "cancel", "id": 1})",              // no target
    };
    for (const char *text : bad)
        EXPECT_THROW(parseRequest(text), FatalError)
            << "accepted: " << text;
    // Mistyped options are rejected, never defaulted, and the message
    // names the field.
    const std::pair<const char *, const char *> bad_options[] = {
        {R"("lane": "A")", "options.lane"},
        {R"("budget": "100")", "options.budget"},
        {R"("budget": 1.5)", "options.budget"},
        {R"("budget": -2)", "options.budget"},
        {R"("budget": null)", "options.budget"},
        {R"("clean": 1)", "options.clean"},
        {R"("counterexample": "no")", "options.counterexample"},
    };
    for (const auto &[option, field] : bad_options) {
        const std::string text =
            format(R"({"op": "verify", "id": 1, "source": "", )"
                   R"("options": {%s}})",
                   option);
        try {
            parseRequest(text);
            ADD_FAILURE() << "accepted: " << text;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string::npos,
                      std::string(e.what()).find(field))
                << e.what();
        }
    }
    // -1 (unlimited) is the smallest budget.
    EXPECT_EQ(-1, parseRequest(R"({"op": "verify", "id": 1, )"
                               R"("source": "", "options": )"
                               R"({"budget": -1}})")
                      .options.budget);
}

// ======================================================== request queue

TEST(RequestQueue, BoundedFifoWithBackpressure)
{
    RequestQueue queue(2);
    EXPECT_EQ(2u, queue.capacity());
    QueuedRequest a, b, c;
    a.request.id = 1;
    b.request.id = 2;
    c.request.id = 3;
    EXPECT_TRUE(queue.tryPush(std::move(a)));
    EXPECT_TRUE(queue.tryPush(std::move(b)));
    EXPECT_FALSE(queue.tryPush(std::move(c))) << "over capacity";
    EXPECT_EQ(2u, queue.size());
    auto first = queue.pop();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(1, first->request.id);
    QueuedRequest d;
    d.request.id = 4;
    EXPECT_TRUE(queue.tryPush(std::move(d))) << "slot freed by pop";
    EXPECT_EQ(2, queue.pop()->request.id);
    EXPECT_EQ(4, queue.pop()->request.id);
}

TEST(RequestQueue, CloseDrainsThenReleasesPoppers)
{
    RequestQueue queue(4);
    QueuedRequest a;
    a.request.id = 1;
    EXPECT_TRUE(queue.tryPush(std::move(a)));
    queue.close();
    QueuedRequest late;
    EXPECT_FALSE(queue.tryPush(std::move(late))) << "closed";
    EXPECT_EQ(1, queue.pop()->request.id) << "backlog drains";
    EXPECT_FALSE(queue.pop().has_value()) << "then poppers release";
}

TEST(RequestQueue, PopBlocksUntilPush)
{
    RequestQueue queue(1);
    std::thread producer([&queue] {
        QueuedRequest item;
        item.request.id = 42;
        while (!queue.tryPush(std::move(item)))
            std::this_thread::yield();
    });
    const auto item = queue.pop(); // blocks until the push lands
    producer.join();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(42, item->request.id);
}

// ========================================================= test client

/** Minimal blocking line-protocol client for the daemon tests. */
class TestClient
{
  public:
    /** Tag selecting the TCP constructor. */
    struct Tcp {};

    explicit TestClient(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        qbAssert(path.size() < sizeof(addr.sun_path),
                 "test socket path too long");
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        qbAssert(fd_ >= 0, "test client: socket() failed");
        qbAssert(::connect(fd_,
                           reinterpret_cast<sockaddr *>(&addr),
                           sizeof(addr)) == 0,
                 "test client: connect() failed");
    }

    /** Connect over TCP to "host:port" (Server::tcpEndpoint()). */
    TestClient(Tcp, const std::string &endpoint)
    {
        const std::size_t colon = endpoint.rfind(':');
        qbAssert(colon != std::string::npos,
                 "test client: endpoint is not host:port");
        const std::string host = endpoint.substr(0, colon);
        const std::string port = endpoint.substr(colon + 1);
        addrinfo hints{};
        hints.ai_family = AF_UNSPEC;
        hints.ai_socktype = SOCK_STREAM;
        addrinfo *results = nullptr;
        qbAssert(::getaddrinfo(host.c_str(), port.c_str(), &hints,
                               &results) == 0,
                 "test client: cannot resolve endpoint");
        for (addrinfo *ai = results; ai != nullptr;
             ai = ai->ai_next) {
            fd_ = ::socket(ai->ai_family,
                           ai->ai_socktype | SOCK_CLOEXEC,
                           ai->ai_protocol);
            if (fd_ < 0)
                continue;
            if (::connect(fd_, ai->ai_addr, ai->ai_addrlen) == 0)
                break;
            ::close(fd_);
            fd_ = -1;
        }
        ::freeaddrinfo(results);
        qbAssert(fd_ >= 0, "test client: TCP connect() failed");
    }

    ~TestClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void
    send(const std::string &line)
    {
        std::string frame = line;
        frame += '\n';
        std::size_t sent = 0;
        while (sent < frame.size()) {
            const ssize_t n =
                ::send(fd_, frame.data() + sent,
                       frame.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            ASSERT_GT(n, 0) << "send failed";
            sent += static_cast<std::size_t>(n);
        }
    }

    /** Next raw response line (without '\n'); nullopt on EOF. */
    std::optional<std::string>
    nextRaw()
    {
        std::size_t eol;
        while ((eol = buffer_.find('\n')) == std::string::npos) {
            char chunk[4096];
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return std::nullopt;
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
        std::string line = buffer_.substr(0, eol);
        buffer_.erase(0, eol + 1);
        return line;
    }

    /** Next response line, parsed; nullopt on EOF. */
    std::optional<JsonValue>
    next()
    {
        const auto line = nextRaw();
        if (!line)
            return std::nullopt;
        return JsonValue::parse(*line);
    }

    /** Raw line of the terminal `result`/`error` frame of @p id
     *  (frames of other ids and non-terminal frames are skipped). */
    std::string
    terminalRawLine(std::int64_t id)
    {
        while (auto line = nextRaw()) {
            const JsonValue frame = JsonValue::parse(*line);
            const JsonValue *fid = frame.find("id");
            if (!fid || fid->asInt(-1) != id)
                continue;
            const std::string type = frame.find("type")->asString();
            if (type == "result" || type == "error")
                return *line;
        }
        ADD_FAILURE() << "stream ended before result of id " << id;
        return "";
    }

    /** Read frames for request @p id until its terminal frame
     *  (`result` or `error`); returns every frame of that id in
     *  order.  Frames of other ids are discarded. */
    std::vector<JsonValue>
    collect(std::int64_t id)
    {
        std::vector<JsonValue> frames;
        while (auto frame = next()) {
            const JsonValue *fid = frame->find("id");
            if (!fid || fid->asInt(-1) != id)
                continue;
            const std::string type = frame->find("type")->asString();
            frames.push_back(std::move(*frame));
            if (type == "result" || type == "error")
                return frames;
        }
        ADD_FAILURE() << "stream ended before result of id " << id;
        return frames;
    }

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
    std::string buffer_;
};

std::string
testSocketPath(const std::string &name)
{
    return format("/tmp/qb_server_test_%d_%s.sock",
                  static_cast<int>(::getpid()), name.c_str());
}

std::string
verifyRequestLine(std::int64_t id, const std::string &source,
                  const std::string &extra_options = "")
{
    std::string line =
        format("{\"op\": \"verify\", \"id\": %lld, \"source\": \"%s\"",
               static_cast<long long>(id),
               jsonEscape(source).c_str());
    if (!extra_options.empty())
        line += ", \"options\": {" + extra_options + "}";
    line += "}";
    return line;
}

/** The schedule-independent fields of one qubit frame, as one
 *  comparable string (timing fields deliberately excluded). */
std::string
comparableQubit(const JsonValue &q)
{
    std::string out = q.find("name")->asString();
    out += "|" + q.find("verdict")->asString();
    out += "|" + q.find("failed_condition")->asString();
    const JsonValue *cex = q.find("counterexample");
    if (cex && cex->kind() == JsonValue::Kind::Array) {
        out += "|cex:";
        for (const JsonValue &bit : cex->items())
            out += bit.asInt() ? '1' : '0';
    } else {
        out += "|cex:none";
    }
    return out;
}

/** The same comparable string computed from a local QubitResult. */
std::string
comparableQubit(const core::QubitResult &r)
{
    std::string out = r.name;
    out += "|";
    out += core::verdictName(r.verdict);
    out += "|";
    switch (r.failed) {
      case core::FailedCondition::None: out += "none"; break;
      case core::FailedCondition::ZeroRestoration:
        out += "zero-restoration";
        break;
      case core::FailedCondition::PlusRestoration:
        out += "plus-restoration";
        break;
    }
    if (r.counterexample) {
        out += "|cex:";
        for (bool b : *r.counterexample)
            out += b ? '1' : '0';
    } else {
        out += "|cex:none";
    }
    return out;
}

std::vector<std::string>
comparableQubits(const std::vector<JsonValue> &frames)
{
    std::vector<std::string> out;
    for (const JsonValue &frame : frames)
        if (frame.find("type")->asString() == "qubit")
            out.push_back(comparableQubit(*frame.find("qubit")));
    return out;
}

std::vector<std::string>
comparableQubits(const core::ProgramResult &result)
{
    std::vector<std::string> out;
    for (const core::QubitResult &r : result.qubits)
        out.push_back(comparableQubit(r));
    return out;
}

/** An unsafe toy program: `a` is flipped under control of `q` and
 *  never uncomputed. */
const char *const kUnsafeSource =
    "borrow@ q;\n"
    "borrow a;\n"
    "CNOT[q, a];\n";

// ====================================================== daemon, e2e

TEST(Server, ConcurrentClientsMatchOneShotRuns)
{
    // The acceptance contract: >= 2 concurrent client programs get
    // verdicts and counterexamples identical (modulo timing fields)
    // to one-shot runs of the same programs.
    const std::string adder = circuits::adderQbrSource(6);
    const std::string mcx = circuits::mcxQbrSource(4);

    // One-shot ground truth, through the same default options the
    // server applies.
    const auto adder_local =
        core::verifyAll(lang::elaborateSource(adder));
    const auto mcx_local =
        core::verifyAll(lang::elaborateSource(mcx));
    const auto unsafe_local =
        core::verifyAll(lang::elaborateSource(kUnsafeSource));
    ASSERT_TRUE(adder_local.allSafe());
    ASSERT_TRUE(mcx_local.allSafe());
    ASSERT_FALSE(unsafe_local.allSafe());

    ServerOptions options;
    options.socketPath = testSocketPath("concurrent");
    options.concurrency = 3;
    options.jobs = 2;
    Server server(std::move(options));
    server.start();

    // Three clients submit BEFORE anyone reads a result, so the
    // programs really are in flight together.
    TestClient client_a(server.socketPath());
    TestClient client_b(server.socketPath());
    TestClient client_c(server.socketPath());
    client_a.send(verifyRequestLine(1, adder));
    client_b.send(verifyRequestLine(2, mcx));
    client_c.send(verifyRequestLine(3, kUnsafeSource));

    const auto frames_a = client_a.collect(1);
    const auto frames_b = client_b.collect(2);
    const auto frames_c = client_c.collect(3);

    for (const auto *frames : {&frames_a, &frames_b, &frames_c}) {
        ASSERT_FALSE(frames->empty());
        // Protocol ordering: accepted first, result terminal.
        EXPECT_EQ("accepted",
                  frames->front().find("type")->asString());
        EXPECT_EQ("result", frames->back().find("type")->asString());
        EXPECT_EQ("done",
                  frames->back().find("status")->asString());
    }
    EXPECT_EQ(comparableQubits(adder_local),
              comparableQubits(frames_a));
    EXPECT_EQ(comparableQubits(mcx_local),
              comparableQubits(frames_b));
    EXPECT_EQ(comparableQubits(unsafe_local),
              comparableQubits(frames_c));

    // The streamed qubit frames and the final report must agree.
    const JsonValue *report_c = frames_c.back().find("report");
    ASSERT_NE(nullptr, report_c);
    EXPECT_FALSE(report_c->find("all_safe")->asBool(true));
    EXPECT_EQ(static_cast<std::int64_t>(adder_local.qubits.size()),
              static_cast<std::int64_t>(
                  frames_a.back()
                      .find("report")
                      ->find("qubits")
                      ->items()
                      .size()));

    server.shutdown();
    const auto counters = server.counters();
    EXPECT_EQ(3u, counters.served);
    EXPECT_EQ(0u, counters.errors);
}

TEST(Server, PerRequestOptionsOverrideDefaults)
{
    ServerOptions options;
    options.socketPath = testSocketPath("options");
    options.jobs = 2;
    Server server(std::move(options));
    server.start();

    TestClient client(server.socketPath());
    // Suppress the counterexample per request; the verdict must still
    // be unsafe.
    client.send(verifyRequestLine(5, kUnsafeSource,
                                  "\"counterexample\": false"));
    const auto frames = client.collect(5);
    ASSERT_EQ("result", frames.back().find("type")->asString());
    bool saw_unsafe_qubit = false;
    for (const JsonValue &frame : frames) {
        if (frame.find("type")->asString() != "qubit")
            continue;
        const JsonValue *q = frame.find("qubit");
        if (q->find("verdict")->asString() != "unsafe")
            continue;
        saw_unsafe_qubit = true;
        EXPECT_TRUE(q->find("counterexample")->isNull());
    }
    EXPECT_TRUE(saw_unsafe_qubit);
    server.shutdown();
}

TEST(Server, BadRequestsDoNotStopTheService)
{
    ServerOptions options;
    options.socketPath = testSocketPath("badreq");
    options.jobs = 1;
    Server server(std::move(options));
    server.start();

    TestClient client(server.socketPath());
    // 1: not JSON at all.
    client.send("this is not json");
    auto frame = client.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ("error", frame->find("type")->asString());
    // 2: well-formed JSON, unknown op.
    client.send(R"({"op": "frobnicate", "id": 9})");
    frame = client.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ("error", frame->find("type")->asString());
    // 3: a program that fails to parse -> error for THAT id.
    client.send(verifyRequestLine(10, "bad program; ok"));
    const auto bad_frames = client.collect(10);
    EXPECT_EQ("error", bad_frames.back().find("type")->asString());
    // 4: the server still serves a good program afterwards.
    client.send(verifyRequestLine(
        11, circuits::adderQbrSource(4)));
    const auto good_frames = client.collect(11);
    EXPECT_EQ("result", good_frames.back().find("type")->asString());
    EXPECT_TRUE(good_frames.back()
                    .find("report")
                    ->find("all_safe")
                    ->asBool(false));
    server.shutdown();
    EXPECT_GE(server.counters().errors, 3u);
    EXPECT_EQ(1u, server.counters().served);
}

TEST(Server, CancellationMidProgramAndQueueBackpressure)
{
    // concurrency 1 + queue capacity 1: one running slot, one queued
    // slot, everything beyond that refused.
    ServerOptions options;
    options.socketPath = testSocketPath("cancel");
    options.concurrency = 1;
    options.queueCapacity = 1;
    options.jobs = 1;
    Server server(std::move(options));
    server.start();

    TestClient client(server.socketPath());
    // A long program (many dirty qubits, verified one after another
    // on the single worker).
    client.send(verifyRequestLine(1, circuits::adderQbrSource(48)));

    // Wait until request 1 is RUNNING - its first qubit frame proves
    // it was popped from the queue.
    bool running = false;
    while (!running) {
        auto frame = client.next();
        ASSERT_TRUE(frame.has_value());
        const std::string type = frame->find("type")->asString();
        ASSERT_NE("result", type) << "finished before cancel";
        running = type == "qubit";
    }

    // Fill the one queued slot, then overflow it: backpressure.
    // Request 1's qubit frames keep streaming concurrently, so skip
    // frames that are not the acks we are waiting for.
    const auto nextFor = [&client](std::int64_t id) {
        while (true) {
            auto frame = client.next();
            qbAssert(frame.has_value(),
                     "stream ended while awaiting an ack");
            const JsonValue *fid = frame->find("id");
            if (fid && fid->asInt(-1) == id)
                return std::move(*frame);
        }
    };
    client.send(verifyRequestLine(2, circuits::adderQbrSource(4)));
    const JsonValue accepted = nextFor(2);
    ASSERT_EQ("accepted", accepted.find("type")->asString());
    client.send(verifyRequestLine(3, circuits::adderQbrSource(4)));
    const JsonValue rejected = nextFor(3);
    EXPECT_EQ("error", rejected.find("type")->asString());
    EXPECT_NE(std::string::npos,
              rejected.find("message")->asString().find(
                  "queue full"));

    // Cancel the in-flight request: its races stop, the remaining
    // qubits settle as undecided, and the result says so.
    client.send(R"({"op": "cancel", "id": 4, "target": 1})");
    bool cancelled_result = false;
    std::int64_t undecided = 0;
    while (!cancelled_result) {
        auto frame = client.next();
        ASSERT_TRUE(frame.has_value());
        const std::string type = frame->find("type")->asString();
        if (type == "cancel") {
            EXPECT_TRUE(frame->find("found")->asBool(false));
            continue;
        }
        if (type != "result" || frame->find("id")->asInt() != 1)
            continue;
        cancelled_result = true;
        EXPECT_EQ("cancelled", frame->find("status")->asString());
        undecided = frame->find("report")
                        ->find("counts")
                        ->find("undecided")
                        ->asInt();
    }
    EXPECT_GT(undecided, 0) << "cancellation left qubits undecided";

    // The queued request 2 still runs to completion afterwards.
    const auto frames_2 = client.collect(2);
    EXPECT_EQ("result", frames_2.back().find("type")->asString());
    EXPECT_EQ("done", frames_2.back().find("status")->asString());
    EXPECT_TRUE(frames_2.back()
                    .find("report")
                    ->find("all_safe")
                    ->asBool(false));

    server.shutdown();
    const auto counters = server.counters();
    EXPECT_EQ(1u, counters.cancelled);
    EXPECT_EQ(1u, counters.rejected);
    EXPECT_EQ(1u, counters.served);
}

TEST(Server, CancellingAQueuedRequestNeverRunsIt)
{
    ServerOptions options;
    options.socketPath = testSocketPath("cancelqueued");
    options.concurrency = 1;
    options.queueCapacity = 2;
    options.jobs = 1;
    Server server(std::move(options));
    server.start();

    TestClient client(server.socketPath());
    client.send(verifyRequestLine(1, circuits::adderQbrSource(40)));
    // Proof request 1 occupies the only worker.
    while (true) {
        auto frame = client.next();
        ASSERT_TRUE(frame.has_value());
        if (frame->find("type")->asString() == "qubit")
            break;
    }
    client.send(verifyRequestLine(2, circuits::adderQbrSource(4)));
    client.send(R"({"op": "cancel", "id": 3, "target": 2})");
    client.send(R"({"op": "cancel", "id": 4, "target": 1})");

    // Request 2 must finish as "cancelled" with ZERO qubit frames:
    // it was cancelled before a worker ever picked it up.
    const auto frames_2 = client.collect(2);
    for (const JsonValue &frame : frames_2)
        EXPECT_NE("qubit", frame.find("type")->asString());
    EXPECT_EQ("result", frames_2.back().find("type")->asString());
    EXPECT_EQ("cancelled",
              frames_2.back().find("status")->asString());
    server.shutdown();
}

TEST(Server, CancelOfUnknownTargetReportsNotFound)
{
    ServerOptions options;
    options.socketPath = testSocketPath("cancelunknown");
    options.jobs = 1;
    Server server(std::move(options));
    server.start();
    TestClient client(server.socketPath());
    client.send(R"({"op": "cancel", "id": 1, "target": 99})");
    auto frame = client.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ("cancel", frame->find("type")->asString());
    EXPECT_FALSE(frame->find("found")->asBool(true));
    server.shutdown();
}

TEST(Server, StatsOpReportsCountersQueueAndBands)
{
    // ROADMAP follow-on closed by ISSUE 5: the exit-line counters on
    // demand, plus queue depth and the scheduler's per-band backlog.
    ServerOptions options;
    options.socketPath = testSocketPath("stats");
    options.concurrency = 1;
    options.jobs = 1;
    options.queueCapacity = 7;
    Server server(std::move(options));
    server.start();

    TestClient client(server.socketPath());
    // Fresh daemon: zero served, empty queue, the pool idle.
    client.send(R"({"op": "stats", "id": 1})");
    auto stats = client.next();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ("stats", stats->find("type")->asString());
    EXPECT_EQ(1, stats->find("id")->asInt());
    EXPECT_EQ(0, stats->find("counters")->find("served")->asInt());
    EXPECT_EQ(1,
              stats->find("counters")->find("connections")->asInt());
    EXPECT_EQ(7, stats->find("queue")->find("capacity")->asInt());
    EXPECT_EQ(1, stats->find("scheduler")->find("workers")->asInt());
    ASSERT_NE(nullptr, stats->find("scheduler")->find("bands"));

    // After a served request the counters must move.
    client.send(verifyRequestLine(2, circuits::adderQbrSource(5)));
    client.collect(2);
    client.send(R"({"op": "stats", "id": 3})");
    // Skip any late frames of request 2 still on the stream.
    std::optional<JsonValue> after;
    while ((after = client.next())) {
        if (after->find("type")->asString() == "stats")
            break;
    }
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(3, after->find("id")->asInt());
    EXPECT_EQ(1, after->find("counters")->find("served")->asInt());
    EXPECT_EQ(1, after->find("counters")->find("requests")->asInt());
    EXPECT_EQ(0, after->find("queue")->find("depth")->asInt());

    server.shutdown();
}

TEST(Server, PingShutdownAndGracefulDrain)
{
    ServerOptions options;
    options.socketPath = testSocketPath("shutdown");
    options.concurrency = 1;
    options.jobs = 1;
    Server server(std::move(options));
    server.start();

    TestClient client(server.socketPath());
    client.send(R"({"op": "ping", "id": 1})");
    auto pong = client.next();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ("pong", pong->find("type")->asString());

    // Submit work, then immediately ask for shutdown: the daemon must
    // DRAIN - the result still arrives before the connection closes.
    client.send(verifyRequestLine(2, circuits::adderQbrSource(5)));
    client.send(R"({"op": "shutdown", "id": 3})");
    while (!server.stopRequested())
        std::this_thread::yield();
    server.shutdown();

    bool saw_result = false;
    bool saw_bye = false;
    while (auto frame = client.next()) {
        const std::string type = frame->find("type")->asString();
        if (type == "result" && frame->find("id")->asInt() == 2) {
            saw_result = true;
            EXPECT_EQ("done", frame->find("status")->asString());
        }
        if (type == "bye")
            saw_bye = true;
    }
    EXPECT_TRUE(saw_result) << "shutdown dropped an admitted request";
    EXPECT_TRUE(saw_bye);
}

TEST(Server, DuplicateInFlightIdIsRefused)
{
    ServerOptions options;
    options.socketPath = testSocketPath("dupid");
    options.concurrency = 1;
    options.queueCapacity = 4;
    options.jobs = 1;
    Server server(std::move(options));
    server.start();
    TestClient client(server.socketPath());
    client.send(verifyRequestLine(1, circuits::adderQbrSource(30)));
    client.send(verifyRequestLine(1, circuits::adderQbrSource(4)));
    // The reader acks in order - accepted(1) then the duplicate's
    // error(1) - but request 1's qubit frames may interleave.
    bool saw_accept = false;
    bool saw_duplicate_error = false;
    while (!saw_duplicate_error) {
        auto frame = client.next();
        ASSERT_TRUE(frame.has_value());
        const std::string type = frame->find("type")->asString();
        if (type == "accepted")
            saw_accept = true;
        else if (type == "error")
            saw_duplicate_error = true;
    }
    EXPECT_TRUE(saw_accept);
    client.send(R"({"op": "cancel", "id": 5, "target": 1})");
    server.shutdown();
}

TEST(Server, StaleSocketFileIsReplacedLiveOneRefused)
{
    const std::string path = testSocketPath("stale");
    {
        // Plant a stale socket file: bind and close without serving.
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        const int fd =
            ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        ASSERT_GE(fd, 0);
        ::unlink(path.c_str());
        ASSERT_EQ(0, ::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)));
        ::close(fd); // no listener left; the file remains
    }
    ServerOptions options;
    options.socketPath = path;
    options.jobs = 1;
    Server server(std::move(options)); // must replace the stale file
    server.start();
    {
        TestClient client(server.socketPath());
        client.send(R"({"op": "ping", "id": 1})");
        EXPECT_TRUE(client.next().has_value());
    }
    // A SECOND server on the same path must refuse: the first one is
    // alive.
    ServerOptions second;
    second.socketPath = path;
    EXPECT_THROW({ Server another(std::move(second)); }, FatalError);
    server.shutdown();
}

TEST(Server, UnwritableSocketPathIsACleanError)
{
    ServerOptions options;
    options.socketPath =
        "/nonexistent-qb-dir/qb.sock"; // unwritable location
    EXPECT_THROW({ Server server(std::move(options)); }, FatalError);
    ServerOptions empty;
    EXPECT_THROW({ Server server(std::move(empty)); }, FatalError);
}

TEST(Server, RefusesToReplaceANonSocketFile)
{
    // A typo'd --serve path pointing at a REGULAR file must never be
    // deleted by the stale-socket takeover.
    const std::string path = testSocketPath("regularfile");
    {
        std::ofstream out(path);
        out << "precious user data\n";
    }
    ServerOptions options;
    options.socketPath = path;
    EXPECT_THROW({ Server server(std::move(options)); }, FatalError);
    std::ifstream back(path);
    std::string content;
    std::getline(back, content);
    EXPECT_EQ("precious user data", content) << "file was clobbered";
    ::unlink(path.c_str());
}

// ================================================== auth protocol units

TEST(ParseRequest, AuthOpRequiresStringToken)
{
    const Request r = parseRequest(
        R"({"op": "auth", "id": 2, "token": "s3cret"})");
    EXPECT_EQ(RequestOp::Auth, r.op);
    EXPECT_EQ(2, r.id);
    EXPECT_EQ("s3cret", r.token);
    EXPECT_THROW(parseRequest(R"({"op": "auth", "id": 2})"),
                 FatalError);
    EXPECT_THROW(
        parseRequest(R"({"op": "auth", "id": 2, "token": 7})"),
        FatalError);
}

TEST(AuthResponse, Serializes)
{
    const JsonValue ok = JsonValue::parse(authResponse(4, true));
    EXPECT_EQ("auth", ok.find("type")->asString());
    EXPECT_EQ(4, ok.find("id")->asInt());
    EXPECT_TRUE(ok.find("ok")->asBool(false));
    const JsonValue bad = JsonValue::parse(authResponse(5, false));
    EXPECT_FALSE(bad.find("ok")->asBool(true));
}

TEST(StatsResponse, ServingFieldsAreBackwardCompatibleAdditions)
{
    StatsSnapshot snapshot;
    snapshot.served = 2;
    snapshot.uptimeSeconds = 12.5;
    snapshot.opVerify = 3;
    snapshot.opAuth = 1;
    snapshot.resultCache.hits = 4;
    snapshot.resultCache.evictions = 1;
    snapshot.programCache.entries = 2;
    snapshot.warmVerifies = 5;
    snapshot.activeConnections = 1;
    snapshot.connectionLimit = 8;
    snapshot.authRejected = 6;
    const JsonValue doc =
        JsonValue::parse(statsResponse(3, snapshot));
    // Pre-PR 6 fields keep their exact shape...
    EXPECT_EQ(2, doc.find("counters")->find("served")->asInt());
    ASSERT_NE(nullptr, doc.find("queue"));
    ASSERT_NE(nullptr, doc.find("scheduler")->find("bands"));
    // ...and the serving tier adds NEW top-level objects.
    EXPECT_DOUBLE_EQ(12.5, doc.find("uptime_seconds")->asNumber());
    EXPECT_EQ(3, doc.find("ops")->find("verify")->asInt());
    EXPECT_EQ(1, doc.find("ops")->find("auth")->asInt());
    const JsonValue *caches = doc.find("caches");
    ASSERT_NE(nullptr, caches);
    EXPECT_EQ(4, caches->find("result")->find("hits")->asInt());
    EXPECT_EQ(1, caches->find("result")->find("evictions")->asInt());
    EXPECT_EQ(2, caches->find("program")->find("entries")->asInt());
    EXPECT_EQ(5, caches->find("warm_verifies")->asInt());
    EXPECT_EQ(1, doc.find("connections")->find("active")->asInt());
    EXPECT_EQ(8, doc.find("connections")->find("limit")->asInt());
    EXPECT_EQ(6,
              doc.find("connections")->find("auth_rejected")->asInt());
}

// ==================================================== serving-tier units

TEST(ServingCache, ProgramCacheHashConsesAndEvictsLru)
{
    serving::ProgramCache cache(2);
    const std::string program_a = "borrow@ q;\n";
    const auto a = cache.acquire(program_a, 1);
    const auto a_again = cache.acquire(program_a, 2);
    EXPECT_EQ(a.get(), a_again.get()) << "hash-consed";
    EXPECT_EQ(1u, a->band) << "band pinned at creation";
    const auto b = cache.acquire("borrow@ r;\n", 3);
    EXPECT_TRUE(b->elaborationError.empty());
    cache.acquire("borrow@ s;\n", 4); // capacity 2: evicts a (LRU)
    const auto a_fresh = cache.acquire(program_a, 5);
    EXPECT_NE(a.get(), a_fresh.get()) << "was evicted";
    const auto counters = cache.counters();
    EXPECT_EQ(1u, counters.hits);
    EXPECT_EQ(4u, counters.misses);
    EXPECT_EQ(2u, counters.evictions);
    EXPECT_EQ(2u, counters.entries);
}

TEST(ServingCache, ProgramCacheCachesElaborationErrors)
{
    serving::ProgramCache cache(4);
    const auto bad = cache.acquire("this is not a program", 1);
    EXPECT_FALSE(bad->elaborationError.empty());
    EXPECT_EQ(nullptr, bad->program.get());
    // Negative entries are cached too: resubmission fails fast.
    const auto again = cache.acquire("this is not a program", 2);
    EXPECT_EQ(bad.get(), again.get());
}

TEST(ServingCache, ResultCacheKeysOnSourceHashAndOptions)
{
    serving::ResultCache cache(2);
    const std::string source = "borrow@ q;\n";
    const auto hash = serving::hashSource(source);
    core::ProgramResult result;
    result.totalSeconds = 1.5;
    cache.insert(hash,
                 std::make_shared<const std::string>(source),
                 "optA", result);
    const auto hit = cache.lookup(hash, source, "optA");
    ASSERT_NE(nullptr, hit.get());
    EXPECT_DOUBLE_EQ(1.5, hit->totalSeconds);
    EXPECT_EQ(nullptr,
              cache.lookup(hash, source, "optB").get())
        << "different options fingerprint";
    EXPECT_EQ(nullptr,
              cache.lookup(hash, "other source", "optA").get())
        << "source byte-compare guards hash collisions";
}

TEST(ServingTier, OptionsFingerprintSeparatesResultAffectingKnobs)
{
    const core::EngineOptions base =
        core::EngineOptions::singleLane(core::VerifierOptions::laneA());
    const std::string key =
        serving::ServingTier::optionsFingerprint(base, false);
    EXPECT_EQ(key,
              serving::ServingTier::optionsFingerprint(base, false));
    EXPECT_NE(key,
              serving::ServingTier::optionsFingerprint(base, true));
    EXPECT_NE(key, serving::ServingTier::optionsFingerprint(
                       core::EngineOptions::singleLane(
                           core::VerifierOptions::laneB()),
                       false));
    core::EngineOptions budgeted = base;
    budgeted.lane.conflictBudget = 100;
    EXPECT_NE(key, serving::ServingTier::optionsFingerprint(
                       budgeted, false));
    // Scheduling-only knobs must NOT splinter the cache.
    core::EngineOptions scheduling = base;
    scheduling.fairnessBand = 77;
    scheduling.jobs = 9;
    EXPECT_EQ(key, serving::ServingTier::optionsFingerprint(
                       scheduling, false));
}

// =================================================== warm cache, e2e

/** The stats frame for @p id, skipping unrelated frames. */
JsonValue
fetchStats(TestClient &client, std::int64_t id)
{
    client.send(format("{\"op\": \"stats\", \"id\": %lld}",
                       static_cast<long long>(id)));
    while (auto frame = client.next()) {
        const JsonValue *fid = frame->find("id");
        if (frame->find("type")->asString() == "stats" && fid &&
            fid->asInt(-1) == id)
            return std::move(*frame);
    }
    ADD_FAILURE() << "stream ended before the stats frame";
    return JsonValue{};
}

TEST(Server, ResultCacheHitIsByteIdenticalAndCounted)
{
    ServerOptions options;
    options.socketPath = testSocketPath("resultcache");
    options.concurrency = 1;
    options.jobs = 2;
    Server server(std::move(options));
    server.start();

    TestClient client(server.socketPath());
    const std::string source = circuits::adderQbrSource(5);
    client.send(verifyRequestLine(1, source));
    const std::string cold = client.terminalRawLine(1);
    // Same id, same source, same options: the repeat may answer from
    // the result cache, and its final frame must be BYTE-identical -
    // including the timing fields, which are replayed, not re-earned.
    client.send(verifyRequestLine(1, source));
    const std::string warm = client.terminalRawLine(1);
    EXPECT_EQ(cold, warm);

    const JsonValue stats = fetchStats(client, 50);
    EXPECT_GE(stats.find("caches")->find("result")->find("hits")
                  ->asInt(),
              1);
    EXPECT_EQ(2, stats.find("ops")->find("verify")->asInt());
    EXPECT_GT(stats.find("uptime_seconds")->asNumber(-1.0), 0.0);
    server.shutdown();
    EXPECT_EQ(2u, server.counters().served);
}

TEST(Server, ResultCacheEvictsUnderItsBound)
{
    ServerOptions options;
    options.socketPath = testSocketPath("eviction");
    options.concurrency = 1;
    options.jobs = 1;
    options.resultCacheCapacity = 1; // one memoized verdict at a time
    Server server(std::move(options));
    server.start();

    TestClient client(server.socketPath());
    client.send(verifyRequestLine(1, circuits::adderQbrSource(4)));
    client.collect(1);
    client.send(verifyRequestLine(2, circuits::mcxQbrSource(4)));
    client.collect(2);
    // The mcx result evicted the adder result; resubmitting the adder
    // recomputes (and evicts mcx in turn).
    client.send(verifyRequestLine(3, circuits::adderQbrSource(4)));
    const auto frames = client.collect(3);
    EXPECT_EQ("done", frames.back().find("status")->asString());

    const JsonValue stats = fetchStats(client, 50);
    const JsonValue *result_cache =
        stats.find("caches")->find("result");
    EXPECT_GE(result_cache->find("evictions")->asInt(), 2);
    EXPECT_EQ(0, result_cache->find("hits")->asInt());
    EXPECT_LE(result_cache->find("entries")->asInt(), 1);
    server.shutdown();
}

TEST(Server, WarmSessionsServeRepeatsWhenResultCacheIsOff)
{
    ServerOptions options;
    options.socketPath = testSocketPath("warmsessions");
    options.concurrency = 1;
    options.jobs = 2;
    options.resultCacheCapacity = 0; // force re-verification...
    Server server(std::move(options));
    server.start();

    TestClient client(server.socketPath());
    const std::string source = circuits::adderQbrSource(5);
    client.send(verifyRequestLine(1, source));
    const auto cold = client.collect(1);
    client.send(verifyRequestLine(2, source));
    const auto warm = client.collect(2); // ...through warm sessions
    EXPECT_EQ("done", warm.back().find("status")->asString());
    EXPECT_EQ(comparableQubits(cold), comparableQubits(warm));

    const JsonValue stats = fetchStats(client, 50);
    EXPECT_GE(stats.find("caches")->find("warm_verifies")->asInt(),
              1);
    EXPECT_GE(stats.find("caches")->find("program")->find("hits")
                  ->asInt(),
              1);
    server.shutdown();
    EXPECT_EQ(2u, server.counters().served);
}

TEST(Server, LaneOptionIsRejectedAndServiceContinues)
{
    // The daemon decides every request with its one lane: a request
    // naming a lane gets exactly one error frame naming the field,
    // and the same connection goes on to serve a valid verify.
    ServerOptions options;
    options.socketPath = testSocketPath("nolane");
    options.jobs = 1;
    Server server(std::move(options));
    server.start();

    TestClient client(server.socketPath());
    const std::string source = circuits::adderQbrSource(4);
    client.send(verifyRequestLine(1, source, R"("lane": "A")"));
    const auto error = client.next();
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ("error", error->find("type")->asString());
    const std::string message = error->find("message")->asString();
    EXPECT_NE(std::string::npos, message.find("options.lane")) << message;

    client.send(verifyRequestLine(2, source));
    while (auto frame = client.next()) {
        const std::string type = frame->find("type")->asString();
        ASSERT_NE("error", type) << "second error frame";
        if (type != "result")
            continue;
        EXPECT_EQ(2, frame->find("id")->asInt());
        EXPECT_TRUE(
            frame->find("report")->find("all_safe")->asBool(false));
        break;
    }
    server.shutdown();
    EXPECT_EQ(1u, server.counters().errors);
    EXPECT_EQ(1u, server.counters().served);
}

TEST(Server, ProtocolErrorKeepsTheRequestId)
{
    // A frame rejected after its valid id was read gets one error
    // frame carrying that id, so a pipelining client can tell which
    // request failed; a frame whose id itself is malformed gets null.
    ServerOptions options;
    options.socketPath = testSocketPath("errid");
    options.jobs = 1;
    Server server(std::move(options));
    server.start();

    TestClient client(server.socketPath());
    client.send(verifyRequestLine(3, circuits::adderQbrSource(4),
                                  R"("budget": "x")"));
    const auto error = client.next();
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ("error", error->find("type")->asString());
    EXPECT_EQ(3, error->find("id")->asInt());
    EXPECT_NE(std::string::npos,
              error->find("message")->asString().find("options.budget"));

    client.send(R"({"op": "ping", "id": "seven"})");
    const auto bad_id = client.next();
    ASSERT_TRUE(bad_id.has_value());
    EXPECT_EQ("error", bad_id->find("type")->asString());
    EXPECT_EQ(JsonValue::Kind::Null, bad_id->find("id")->kind());

    client.send(R"({"op": "ping", "id": 4})");
    const auto pong = client.next();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ("pong", pong->find("type")->asString());
    EXPECT_EQ(4, pong->find("id")->asInt());
    server.shutdown();
    EXPECT_EQ(2u, server.counters().errors);
}

TEST(Server, CancelledProgramResubmitsCleanlyThroughWarmSessions)
{
    ServerOptions options;
    options.socketPath = testSocketPath("cancelwarm");
    options.concurrency = 1;
    options.jobs = 1;
    Server server(std::move(options));
    server.start();

    TestClient client(server.socketPath());
    const std::string source = circuits::adderQbrSource(32);
    client.send(verifyRequestLine(1, source));
    // Wait until the request is running, then cancel mid-program: the
    // warm sessions absorb a cancellation.
    while (true) {
        auto frame = client.next();
        ASSERT_TRUE(frame.has_value());
        if (frame->find("type")->asString() == "qubit")
            break;
    }
    client.send(R"({"op": "cancel", "id": 2, "target": 1})");
    bool cancelled = false;
    while (!cancelled) {
        auto frame = client.next();
        ASSERT_TRUE(frame.has_value());
        if (frame->find("type")->asString() == "result" &&
            frame->find("id")->asInt() == 1) {
            EXPECT_EQ("cancelled",
                      frame->find("status")->asString());
            cancelled = true;
        }
    }
    // A cancelled run is never memoized; the resubmission re-verifies
    // through the SAME warm sessions (rearmed with a fresh cancel
    // source) and completes.
    client.send(verifyRequestLine(3, source));
    const auto frames = client.collect(3);
    EXPECT_EQ("done", frames.back().find("status")->asString());
    EXPECT_TRUE(frames.back()
                    .find("report")
                    ->find("all_safe")
                    ->asBool(false));
    server.shutdown();
}

TEST(Server, ConcurrentIdenticalSubmissionsComputeOnceAnswerAll)
{
    ServerOptions options;
    options.socketPath = testSocketPath("singleflight");
    options.concurrency = 3; // all three requests in flight together
    options.jobs = 2;
    Server server(std::move(options));
    server.start();

    const std::string source = circuits::adderQbrSource(8);
    TestClient client_a(server.socketPath());
    TestClient client_b(server.socketPath());
    TestClient client_c(server.socketPath());
    client_a.send(verifyRequestLine(1, source));
    client_b.send(verifyRequestLine(2, source));
    client_c.send(verifyRequestLine(3, source));
    const auto frames_a = client_a.collect(1);
    const auto frames_b = client_b.collect(2);
    const auto frames_c = client_c.collect(3);
    for (const auto *frames : {&frames_a, &frames_b, &frames_c}) {
        EXPECT_EQ("result",
                  frames->back().find("type")->asString());
        EXPECT_EQ("done", frames->back().find("status")->asString());
    }
    // Every client saw the same verdicts...
    EXPECT_EQ(comparableQubits(frames_a), comparableQubits(frames_b));
    EXPECT_EQ(comparableQubits(frames_a), comparableQubits(frames_c));
    // ...and single-flight + the result cache ensured one compute: the
    // other two answered from the memoized result, whichever order the
    // three were admitted in.
    const JsonValue stats = fetchStats(client_a, 50);
    EXPECT_GE(stats.find("caches")->find("result")->find("hits")
                  ->asInt(),
              2);
    server.shutdown();
    EXPECT_EQ(3u, server.counters().served);
}

// ======================================================== TCP transport

TEST(Server, TcpTokenAuthRejectsBeforeAdmissionAndAcceptsWithToken)
{
    const auto unsafe_local =
        core::verifyAll(lang::elaborateSource(kUnsafeSource));

    ServerOptions options;
    options.tcpAddress = "127.0.0.1:0"; // TCP only, ephemeral port
    options.authToken = "s3cret";
    options.jobs = 1;
    Server server(std::move(options));
    server.start();
    ASSERT_FALSE(server.tcpEndpoint().empty());

    {
        // Unauthenticated ops are refused before the queue...
        TestClient intruder(TestClient::Tcp{}, server.tcpEndpoint());
        intruder.send(verifyRequestLine(1, kUnsafeSource));
        auto refused = intruder.next();
        ASSERT_TRUE(refused.has_value());
        EXPECT_EQ("error", refused->find("type")->asString());
        EXPECT_NE(std::string::npos,
                  refused->find("message")->asString().find(
                      "authentication required"));
        // ...and a wrong token is answered then disconnected.
        intruder.send(
            R"({"op": "auth", "id": 2, "token": "wrong"})");
        auto denied = intruder.next();
        ASSERT_TRUE(denied.has_value());
        EXPECT_EQ("auth", denied->find("type")->asString());
        EXPECT_FALSE(denied->find("ok")->asBool(true));
        EXPECT_FALSE(intruder.next().has_value())
            << "connection must close after a bad token";
    }

    // The right token unlocks the full protocol, with the same
    // verdicts the Unix transport (and a local run) produces.
    TestClient client(TestClient::Tcp{}, server.tcpEndpoint());
    client.send(R"({"op": "auth", "id": 1, "token": "s3cret"})");
    auto granted = client.next();
    ASSERT_TRUE(granted.has_value());
    EXPECT_EQ("auth", granted->find("type")->asString());
    EXPECT_TRUE(granted->find("ok")->asBool(false));
    client.send(R"({"op": "ping", "id": 2})");
    auto pong = client.next();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ("pong", pong->find("type")->asString());
    client.send(verifyRequestLine(3, kUnsafeSource));
    const auto frames = client.collect(3);
    EXPECT_EQ("done", frames.back().find("status")->asString());
    EXPECT_EQ(comparableQubits(unsafe_local),
              comparableQubits(frames));

    const JsonValue stats = fetchStats(client, 50);
    EXPECT_GE(stats.find("connections")->find("auth_rejected")
                  ->asInt(),
              2);
    server.shutdown();
    // The rejected frames never became admitted requests.
    EXPECT_EQ(1u, server.counters().requests);
}

TEST(Server, TcpConnectionLimitRefusesTheExcessConnection)
{
    ServerOptions options;
    options.tcpAddress = "127.0.0.1:0";
    options.maxConnections = 1;
    options.jobs = 1;
    Server server(std::move(options));
    server.start();

    TestClient first(TestClient::Tcp{}, server.tcpEndpoint());
    first.send(R"({"op": "ping", "id": 1})");
    ASSERT_TRUE(first.next().has_value())
        << "first connection must be registered and serving";

    TestClient second(TestClient::Tcp{}, server.tcpEndpoint());
    auto refused = second.next();
    ASSERT_TRUE(refused.has_value());
    EXPECT_EQ("error", refused->find("type")->asString());
    EXPECT_NE(std::string::npos,
              refused->find("message")->asString().find(
                  "connection limit"));
    EXPECT_FALSE(second.next().has_value()) << "then disconnected";

    // The first connection is unaffected.
    first.send(R"({"op": "ping", "id": 2})");
    auto pong = first.next();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ("pong", pong->find("type")->asString());
    server.shutdown();
}

TEST(Server, TcpDrainDeliversResultsOnShutdown)
{
    ServerOptions options;
    options.tcpAddress = "127.0.0.1:0";
    options.concurrency = 1;
    options.jobs = 1;
    Server server(std::move(options));
    server.start();

    TestClient client(TestClient::Tcp{}, server.tcpEndpoint());
    client.send(verifyRequestLine(1, circuits::adderQbrSource(5)));
    client.send(R"({"op": "shutdown", "id": 2})");
    while (!server.stopRequested())
        std::this_thread::yield();
    server.shutdown();

    bool saw_result = false;
    bool saw_bye = false;
    while (auto frame = client.next()) {
        const std::string type = frame->find("type")->asString();
        if (type == "result" && frame->find("id")->asInt() == 1) {
            saw_result = true;
            EXPECT_EQ("done", frame->find("status")->asString());
        }
        if (type == "bye")
            saw_bye = true;
    }
    EXPECT_TRUE(saw_result)
        << "drain dropped an admitted TCP request";
    EXPECT_TRUE(saw_bye);
}

TEST(Server, IdleTimeoutClosesQuietConnections)
{
    ServerOptions options;
    options.socketPath = testSocketPath("idle");
    options.idleTimeoutSeconds = 1;
    options.jobs = 1;
    Server server(std::move(options));
    server.start();

    TestClient client(server.socketPath());
    client.send(R"({"op": "ping", "id": 1})");
    ASSERT_TRUE(client.next().has_value());
    // Go quiet: the sweep must close the connection (EOF on read)
    // without any client action.  Bounded wait, generous for CI.
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(client.next().has_value());
    const auto waited = std::chrono::duration_cast<
        std::chrono::seconds>(std::chrono::steady_clock::now() -
                              start);
    EXPECT_LT(waited.count(), 30);
    server.shutdown();
}

TEST(Server, UnixAndTcpListenersServeTogether)
{
    ServerOptions options;
    options.socketPath = testSocketPath("dual");
    options.tcpAddress = "127.0.0.1:0";
    options.jobs = 1;
    Server server(std::move(options));
    server.start();

    TestClient unix_client(server.socketPath());
    TestClient tcp_client(TestClient::Tcp{}, server.tcpEndpoint());
    unix_client.send(verifyRequestLine(1, kUnsafeSource));
    tcp_client.send(verifyRequestLine(2, kUnsafeSource));
    const auto unix_frames = unix_client.collect(1);
    const auto tcp_frames = tcp_client.collect(2);
    EXPECT_EQ("done",
              unix_frames.back().find("status")->asString());
    EXPECT_EQ("done", tcp_frames.back().find("status")->asString());
    EXPECT_EQ(comparableQubits(unix_frames),
              comparableQubits(tcp_frames));
    server.shutdown();
    EXPECT_EQ(2u, server.counters().connections);
}

// ============================================ engine-level cancellation

TEST(CancelSource, PreCancelledSourceSettlesImmediately)
{
    const auto program =
        lang::elaborateSource(circuits::adderQbrSource(5));
    auto scheduler = std::make_shared<core::Scheduler>(1u);
    auto cancel = std::make_shared<core::CancelSource>();
    cancel->requestCancel();
    const auto result = core::verifyAll(
        program, core::EngineOptions{}, {}, false, scheduler, cancel);
    ASSERT_FALSE(result.qubits.empty());
    for (const auto &qubit : result.qubits)
        EXPECT_EQ(core::Verdict::Unknown, qubit.verdict);
}

TEST(CancelSource, CancelDuringBatchLeavesTailUndecided)
{
    const auto program =
        lang::elaborateSource(circuits::adderQbrSource(24));
    auto scheduler = std::make_shared<core::Scheduler>(1u);
    auto cancel = std::make_shared<core::CancelSource>();
    std::atomic<int> streamed{0};
    // Cancel from the observer of the FIRST result: a thread racing
    // the batch mid-flight, deterministic enough for CI.
    const core::ResultObserver observer =
        [&](const core::QubitResult &) {
            if (streamed.fetch_add(1) == 0)
                cancel->requestCancel();
        };
    const auto result = core::verifyAll(
        program, core::EngineOptions{}, observer, false, scheduler,
        cancel);
    std::size_t undecided = 0;
    for (const auto &qubit : result.qubits)
        if (qubit.verdict == core::Verdict::Unknown)
            ++undecided;
    EXPECT_GT(undecided, 0u);
    // The first qubit was decided before the cancel fired.
    EXPECT_EQ(core::Verdict::Safe, result.qubits.front().verdict);
}

} // namespace
} // namespace qb::server
