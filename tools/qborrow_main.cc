/**
 * @file
 * The qborrow command-line verifier, mirroring the artifact binary of
 * the paper (Section 10.2: `./qborrow ../examples/adder.qbr`).
 *
 * Three modes share one flag surface:
 *
 *   - LOCAL (default): read a QBorrow program, elaborate it, and
 *     verify the safe uncomputation of every `borrow`-introduced dirty
 *     qubit through a VerificationEngine session;
 *   - SERVER (`--serve <socket>`): run as a long-lived daemon that
 *     accepts many programs over a Unix domain socket and feeds them
 *     all through one process-wide scheduler pool (src/server/);
 *   - CLIENT (`--connect <socket>`): submit one program to a running
 *     daemon and print the streamed results, with the same text/JSON
 *     output shapes and exit codes as a local run.
 *
 * Exit status: 0 when all checked qubits are safe, 1 when any is
 * unsafe or undecided (including a cancelled request), 2 on usage,
 * input, socket or protocol errors.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "analysis/lint.h"
#include "core/engine.h"
#include "core/report.h"
#include "core/verifier.h"
#include "lang/elaborate.h"
#include "lang/parser.h"
#include "server/protocol.h"
#include "server/server.h"
#include "support/logging.h"
#include "support/strings.h"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options] program.qbr\n"
        "       %s --serve <socket> [--serve-tcp host:port] "
        "[options]\n"
        "       %s --connect <socket> [options] program.qbr\n"
        "       %s --connect <socket> --shutdown | --stats\n"
        "\n"
        "Verify safe uncomputation of every borrowed dirty qubit.\n"
        "\n"
        "options:\n"
        "  --jobs N          scheduler worker threads (default: all\n"
        "                    hardware threads); without --budget,\n"
        "                    verdicts and counterexamples are\n"
        "                    identical for any N\n"
        "  --clean           also check alloc'd clean ancillas\n"
        "  --lint            lint only: print source-located\n"
        "                    diagnostics and metrics, skip\n"
        "                    verification; exit 1 iff any error\n"
        "  --no-lint         skip the lint pass that otherwise runs\n"
        "                    before local verification\n"
        "  --analysis SPEC   static condition dischargers: 'all'\n"
        "                    (default), 'off', or a comma list of\n"
        "                    support,mirror,affine,permutation\n"
        "  --analysis-window N   qubit-window bound of the\n"
        "                    permutation discharger (default 10)\n"
        "  --json            emit a machine-readable JSON report\n"
        "  --quiet           only print the summary line\n"
        "  --dump-circuit    print the elaborated gate list\n"
        "  --no-cex          skip counterexample extraction\n"
        "  --budget N        conflict budget per condition, sweep\n"
        "                    and solve together (-1 = unlimited,\n"
        "                    the default)\n"
        "\n"
        "server mode (--serve / --serve-tcp):\n"
        "  --serve PATH      run as a daemon on Unix socket PATH;\n"
        "                    the other options become the server's\n"
        "                    per-request defaults\n"
        "  --serve-tcp H:P   also (or only) listen on TCP host:port\n"
        "                    (port 0 binds an ephemeral port and\n"
        "                    prints it)\n"
        "  --auth-token T    require clients to authenticate with\n"
        "                    token T before any other op (default:\n"
        "                    $QB_AUTH_TOKEN; empty = no auth)\n"
        "  --parallel N      programs verified concurrently\n"
        "                    (default 2)\n"
        "  --queue N         admission queue bound; further requests\n"
        "                    are refused with 'queue full'\n"
        "                    (default 16)\n"
        "  --max-connections N   open connections allowed at once\n"
        "                    (default 0 = unlimited)\n"
        "  --max-inflight N  verify requests in flight per\n"
        "                    connection (default 0 = unlimited)\n"
        "  --idle-timeout S  close connections idle for S seconds\n"
        "                    (default 0 = never)\n"
        "  --program-cache N elaborated programs kept\n"
        "                    (default 64, 0 disables)\n"
        "  --result-cache N  memoized verdicts kept (default 256,\n"
        "                    0 disables)\n"
        "\n"
        "client mode (--connect / --connect-tcp):\n"
        "  --connect PATH    submit the program to the daemon at\n"
        "                    PATH instead of verifying locally\n"
        "  --connect-tcp H:P connect to a TCP daemon at host:port\n"
        "  --token T         authenticate with token T (default:\n"
        "                    $QB_AUTH_TOKEN)\n"
        "  --stats           print the daemon's stats frame and exit\n"
        "  --shutdown        ask the daemon to drain and exit\n"
        "\n"
        "See docs/CLI.md and docs/SERVER_PROTOCOL.md.\n",
        argv0, argv0, argv0, argv0);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        qb::fatal("cannot open '" + path + "'");
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Everything the flag parser can express, for all three modes. */
struct CliOptions
{
    std::string path;
    std::string servePath;
    std::string serveTcp;
    std::string connectPath;
    std::string connectTcp;
    std::string token;
    bool tokenSet = false;
    bool quiet = false;
    bool dump = false;
    bool lint = false;
    bool noLint = false;
    std::string analysisSpec;
    std::int64_t analysisWindow = -1;
    bool clean = false;
    bool json = false;
    bool want_cex = true;
    bool shutdown_server = false;
    bool stats = false;
    std::int64_t budget = -1;
    std::int64_t jobs = 0;
    std::int64_t parallel = 2;
    std::int64_t queue = 16;
    std::int64_t maxConnections = 0;
    std::int64_t maxInflight = 0;
    std::int64_t idleTimeout = 0;
    std::int64_t programCache = 64;
    std::int64_t resultCache = 256;
};

/** --auth-token / --token when given, else $QB_AUTH_TOKEN, else
 *  empty. */
std::string
resolveToken(const CliOptions &cli)
{
    if (cli.tokenSet)
        return cli.token;
    const char *env = std::getenv("QB_AUTH_TOKEN");
    return env ? env : "";
}

qb::analysis::AnalysisOptions
analysisOptionsFor(const CliOptions &cli)
{
    qb::analysis::AnalysisOptions analysis;
    if (cli.analysisSpec == "off") {
        analysis = qb::analysis::AnalysisOptions::none();
    } else if (!cli.analysisSpec.empty() &&
               cli.analysisSpec != "all") {
        analysis = qb::analysis::AnalysisOptions::none();
        std::size_t start = 0;
        while (start <= cli.analysisSpec.size()) {
            std::size_t comma = cli.analysisSpec.find(',', start);
            if (comma == std::string::npos)
                comma = cli.analysisSpec.size();
            const std::string pass =
                cli.analysisSpec.substr(start, comma - start);
            if (pass == "support")
                analysis.support = true;
            else if (pass == "mirror")
                analysis.mirror = true;
            else if (pass == "affine")
                analysis.affine = true;
            else if (pass == "permutation")
                analysis.permutation = true;
            else
                qb::fatal("unknown analysis pass '" + pass +
                          "' (expected support, mirror, affine or "
                          "permutation)");
            start = comma + 1;
        }
    }
    if (cli.analysisWindow >= 0)
        analysis.permutationWindow =
            static_cast<unsigned>(cli.analysisWindow);
    return analysis;
}

qb::core::EngineOptions
engineOptionsFor(const CliOptions &cli)
{
    qb::core::EngineOptions options;
    options.jobs = static_cast<unsigned>(cli.jobs);
    options.analysis = analysisOptionsFor(cli);
    options.lane.wantCounterexample = cli.want_cex;
    options.lane.solver.conflictBudget = cli.budget;
    return options;
}

void
printQubitLine(const qb::core::QubitResult &r)
{
    std::printf("  %-10s %s", r.name.c_str(),
                qb::core::verdictName(r.verdict));
    if (r.verdict == qb::core::Verdict::Unsafe) {
        std::printf(" (%s restoration violated)",
                    r.failed == qb::core::FailedCondition::
                                    ZeroRestoration
                        ? "|0>"
                        : "|+>");
    }
    // The tag predates the one solver configuration; its bytes are
    // part of the text output.
    if (r.lane >= 0)
        std::printf(" [lane B]");
    std::printf("\n");
    if (r.counterexample) {
        std::printf("    counterexample input:");
        for (bool b : *r.counterexample)
            std::printf(" %d", b ? 1 : 0);
        std::printf("\n");
    }
}

// ------------------------------------------------------------- lint mode

qb::analysis::LintOptions
lintOptionsFor(const CliOptions &cli)
{
    qb::analysis::LintOptions options;
    options.permutationWindow =
        analysisOptionsFor(cli).permutationWindow;
    return options;
}

int
runLint(const CliOptions &cli)
{
    const auto result = qb::analysis::lintSource(readFile(cli.path),
                                                 lintOptionsFor(cli));
    std::printf("%s",
                cli.json
                    ? qb::analysis::lintToJson(result, cli.path)
                          .c_str()
                    : qb::analysis::renderLintText(result, cli.path)
                          .c_str());
    return result.hasErrors() ? 1 : 0;
}

// ------------------------------------------------------------ local mode

int
runLocal(const CliOptions &cli)
{
    const qb::core::EngineOptions options = engineOptionsFor(cli);
    const qb::lang::Program ast = qb::lang::parse(readFile(cli.path));
    // Lint-before-verify (opt out with --no-lint): diagnostics go to
    // stderr so stdout stays the verification report.  One
    // elaboration serves both lint and verification.
    const bool lint = !cli.noLint && !cli.quiet && !cli.json;
    qb::analysis::LintResult linted;
    const auto printLint = [&] {
        qb::analysis::sortDiagnostics(linted.diagnostics);
        for (const auto &d : linted.diagnostics)
            std::fprintf(stderr, "%s:%s\n", cli.path.c_str(),
                         d.toString().c_str());
    };
    if (lint)
        qb::analysis::lintAst(ast, linted.diagnostics);
    const qb::lang::ElaboratedProgram program = [&] {
        try {
            return qb::lang::elaborate(ast);
        } catch (const qb::FatalError &) {
            // An unelaborable program still gets its AST diagnostics,
            // ahead of the elaboration error.
            if (lint)
                printLint();
            throw;
        }
    }();
    if (lint) {
        qb::analysis::lintElaborated(program, lintOptionsFor(cli),
                                     linted);
        printLint();
    }
    if (cli.dump)
        std::printf("%s", program.circuit.toString().c_str());
    if (!cli.quiet && !cli.json) {
        std::printf("%s: %u qubits, %zu gates\n", cli.path.c_str(),
                    program.circuit.numQubits(),
                    program.circuit.size());
    }
    // Stream per-qubit lines as the engine produces them.
    qb::core::ResultObserver observer;
    if (!cli.quiet && !cli.json)
        observer = [](const qb::core::QubitResult &r) {
            printQubitLine(r);
        };
    const auto result =
        qb::core::verifyAll(program, options, observer, cli.clean);
    if (cli.json) {
        std::printf("%s",
                    qb::core::toJson(result, cli.path).c_str());
    } else {
        std::printf("%s\n", result.summary().c_str());
    }
    return result.allSafe() ? 0 : 1;
}

// ----------------------------------------------------------- server mode

std::atomic<bool> g_stop{false};

void
onStopSignal(int)
{
    g_stop.store(true, std::memory_order_release);
}

int
runServer(const CliOptions &cli)
{
    qb::server::ServerOptions options;
    options.socketPath = cli.servePath;
    options.tcpAddress = cli.serveTcp;
    options.authToken = resolveToken(cli);
    options.engine = engineOptionsFor(cli);
    options.checkCleanAncillas = cli.clean;
    options.queueCapacity = static_cast<std::size_t>(cli.queue);
    options.concurrency = static_cast<unsigned>(cli.parallel);
    options.jobs = static_cast<unsigned>(cli.jobs);
    options.maxConnections =
        static_cast<std::size_t>(cli.maxConnections);
    options.maxInflightPerConnection =
        static_cast<std::size_t>(cli.maxInflight);
    options.idleTimeoutSeconds =
        static_cast<unsigned>(cli.idleTimeout);
    options.programCacheCapacity =
        static_cast<std::size_t>(cli.programCache);
    options.resultCacheCapacity =
        static_cast<std::size_t>(cli.resultCache);
    const bool authed = !options.authToken.empty();

    qb::server::Server server(std::move(options));
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
    std::string endpoints;
    if (!server.socketPath().empty())
        endpoints = server.socketPath();
    if (!server.tcpEndpoint().empty()) {
        if (!endpoints.empty())
            endpoints += " and ";
        endpoints += "tcp:" + server.tcpEndpoint();
    }
    qb::inform(qb::format(
        "qborrow server listening on %s (parallel %lld, queue %lld%s)",
        endpoints.c_str(), static_cast<long long>(cli.parallel),
        static_cast<long long>(cli.queue),
        authed ? ", auth required" : ""));
    server.run(&g_stop); // returns after the graceful drain
    const auto counters = server.counters();
    qb::inform(qb::format(
        "qborrow server exiting: %llu request(s) served, %llu "
        "cancelled, %llu rejected, %llu error(s)",
        static_cast<unsigned long long>(counters.served),
        static_cast<unsigned long long>(counters.cancelled),
        static_cast<unsigned long long>(counters.rejected),
        static_cast<unsigned long long>(counters.errors)));
    return 0;
}

// ----------------------------------------------------------- client mode

int
connectTo(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        qb::fatal("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        qb::fatal(std::string("cannot create socket: ") +
                  std::strerror(errno));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        const std::string msg = std::string("cannot connect to '") +
                                path + "': " + std::strerror(errno);
        ::close(fd);
        qb::fatal(msg);
    }
    return fd;
}

int
connectTcp(const std::string &host_port)
{
    const std::size_t colon = host_port.rfind(':');
    if (colon == std::string::npos || colon + 1 >= host_port.size())
        qb::fatal("TCP address must be host:port, got '" +
                  host_port + "'");
    std::string host = host_port.substr(0, colon);
    const std::string port = host_port.substr(colon + 1);
    if (host.size() >= 2 && host.front() == '[' && host.back() == ']')
        host = host.substr(1, host.size() - 2);
    if (host.empty())
        host = "127.0.0.1";

    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *results = nullptr;
    const int rc =
        ::getaddrinfo(host.c_str(), port.c_str(), &hints, &results);
    if (rc != 0)
        qb::fatal("cannot resolve '" + host_port +
                  "': " + ::gai_strerror(rc));
    int fd = -1;
    std::string last_error = "no usable address";
    for (addrinfo *ai = results; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                      ai->ai_protocol);
        if (fd < 0) {
            last_error = std::strerror(errno);
            continue;
        }
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        last_error = std::strerror(errno);
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(results);
    if (fd < 0)
        qb::fatal("cannot connect to '" + host_port +
                  "': " + last_error);
    return fd;
}

void
sendLine(int fd, std::string line)
{
    line += '\n';
    std::size_t sent = 0;
    while (sent < line.size()) {
        const ssize_t n = ::send(fd, line.data() + sent,
                                 line.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            qb::fatal("connection lost while sending request");
        }
        sent += static_cast<std::size_t>(n);
    }
}

/** Read one '\n'-terminated line (without the terminator); false on
 *  EOF. */
bool
readLine(int fd, std::string &buffer, std::string &line)
{
    std::size_t eol;
    while ((eol = buffer.find('\n')) == std::string::npos) {
        char chunk[4096];
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        buffer.append(chunk, static_cast<std::size_t>(n));
    }
    line = buffer.substr(0, eol);
    buffer.erase(0, eol + 1);
    return true;
}

/** Rebuild the local per-qubit text line from a `qubit` response. */
void
printQubitJson(const qb::server::JsonValue &q)
{
    using qb::server::JsonValue;
    const JsonValue *name = q.find("name");
    const JsonValue *verdict = q.find("verdict");
    std::printf("  %-10s %s",
                name ? name->asString().c_str() : "?",
                verdict ? verdict->asString().c_str() : "?");
    if (verdict && verdict->asString() == "unsafe") {
        const JsonValue *failed = q.find("failed_condition");
        std::printf(" (%s restoration violated)",
                    failed &&
                            failed->asString() == "zero-restoration"
                        ? "|0>"
                        : "|+>");
    }
    if (const JsonValue *lane = q.find("lane");
        lane && lane->kind() == JsonValue::Kind::Number)
        std::printf(" [lane B]");
    std::printf("\n");
    if (const JsonValue *cex = q.find("counterexample");
        cex && cex->kind() == JsonValue::Kind::Array) {
        std::printf("    counterexample input:");
        for (const JsonValue &bit : cex->items())
            std::printf(" %d", bit.asInt() != 0 ? 1 : 0);
        std::printf("\n");
    }
}

int
runClient(const CliOptions &cli)
{
    using qb::server::JsonValue;
    const int fd = cli.connectTcp.empty()
        ? connectTo(cli.connectPath)
        : connectTcp(cli.connectTcp);

    // When a token is available, authenticate before anything else -
    // a token-protected daemon rejects every other op first.
    const std::string token = resolveToken(cli);
    if (!token.empty()) {
        sendLine(fd, "{\"op\": \"auth\", \"id\": 0, \"token\": \"" +
                         qb::jsonEscape(token) + "\"}");
        std::string buffer, line;
        bool acknowledged = false;
        while (!acknowledged && readLine(fd, buffer, line)) {
            const JsonValue doc = JsonValue::parse(line);
            const JsonValue *type = doc.find("type");
            if (!type || type->asString() != "auth")
                continue;
            acknowledged = true;
            if (const JsonValue *ok = doc.find("ok");
                !ok || !ok->asBool(false)) {
                ::close(fd);
                qb::fatal("server rejected the auth token");
            }
        }
        if (!acknowledged) {
            ::close(fd);
            qb::fatal("connection closed during authentication");
        }
        if (!buffer.empty())
            qb::warn("unexpected data before the auth ack");
    }

    if (cli.stats) {
        sendLine(fd, "{\"op\": \"stats\", \"id\": 0}");
        std::string buffer, line;
        while (readLine(fd, buffer, line)) {
            const JsonValue doc = JsonValue::parse(line);
            const JsonValue *type = doc.find("type");
            if (type && type->asString() == "error") {
                const JsonValue *message = doc.find("message");
                std::fprintf(stderr, "error: %s\n",
                             message ? message->asString().c_str()
                                     : "server error");
                ::close(fd);
                return 2;
            }
            if (type && type->asString() == "stats") {
                std::printf("%s\n", line.c_str());
                ::close(fd);
                return 0;
            }
        }
        ::close(fd);
        qb::fatal("connection closed before stats arrived");
    }

    if (cli.shutdown_server) {
        sendLine(fd, "{\"op\": \"shutdown\", \"id\": 0}");
        std::string buffer, line;
        // Wait for the ack; the daemon drains before exiting.
        while (readLine(fd, buffer, line)) {
            const JsonValue doc = JsonValue::parse(line);
            const JsonValue *type = doc.find("type");
            if (type && type->asString() == "bye") {
                ::close(fd);
                return 0;
            }
        }
        ::close(fd);
        qb::fatal("connection closed before shutdown was "
                  "acknowledged");
    }

    // The pool size is fixed when the daemon starts; passing it here
    // would silently do nothing, so say so.
    if (cli.jobs != 0)
        qb::warn("--jobs is server-wide; ignored in client mode");

    const std::string source = readFile(cli.path);
    std::string request = "{\"op\": \"verify\", \"id\": 1";
    request += ", \"name\": \"" + qb::jsonEscape(cli.path) + "\"";
    request += ", \"source\": \"" + qb::jsonEscape(source) + "\"";
    request += qb::format(", \"options\": {\"clean\": %s",
                          cli.clean ? "true" : "false");
    request += qb::format(", \"counterexample\": %s",
                          cli.want_cex ? "true" : "false");
    request += qb::format(", \"budget\": %lld",
                          static_cast<long long>(cli.budget));
    request += "}}";
    sendLine(fd, request);

    std::string buffer, line;
    int exit_code = 2;
    bool finished = false;
    while (!finished && readLine(fd, buffer, line)) {
        JsonValue doc;
        try {
            doc = JsonValue::parse(line);
        } catch (const qb::FatalError &) {
            continue; // tolerate unknown garbage on the stream
        }
        const JsonValue *type = doc.find("type");
        if (!type)
            continue;
        const std::string &kind = type->asString();
        if (kind == "error") {
            const JsonValue *message = doc.find("message");
            std::fprintf(stderr, "error: %s\n",
                         message ? message->asString().c_str()
                                 : "server error");
            ::close(fd);
            return 2;
        }
        if (kind == "qubit") {
            if (!cli.quiet && !cli.json)
                if (const JsonValue *q = doc.find("qubit"))
                    printQubitJson(*q);
            continue;
        }
        if (kind != "result")
            continue; // accepted / pong / unrelated ids
        finished = true;
        const JsonValue *status = doc.find("status");
        const JsonValue *report = doc.find("report");
        const bool cancelled =
            status && status->asString() == "cancelled";
        bool all_safe = false;
        if (report)
            if (const JsonValue *safe = report->find("all_safe"))
                all_safe = safe->asBool(false);
        if (cli.json) {
            // The final `result` frame verbatim: one line carrying
            // the compact report plus the request status.
            std::printf("%s\n", line.c_str());
        } else {
            const JsonValue *counts =
                report ? report->find("counts") : nullptr;
            const JsonValue *qubits =
                report ? report->find("qubits") : nullptr;
            const JsonValue *seconds =
                report ? report->find("total_seconds") : nullptr;
            const auto at = [&](const char *key) -> long long {
                const JsonValue *v =
                    counts ? counts->find(key) : nullptr;
                return v ? static_cast<long long>(v->asInt()) : 0;
            };
            std::printf(
                "%zu dirty qubit(s): %lld safe, %lld unsafe, %lld "
                "undecided (%.3f s)%s\n",
                qubits ? qubits->items().size() : 0, at("safe"),
                at("unsafe"), at("undecided"),
                seconds ? seconds->asNumber() : 0.0,
                cancelled ? " [cancelled]" : "");
        }
        exit_code = (all_safe && !cancelled) ? 0 : 1;
    }
    ::close(fd);
    if (!finished)
        qb::fatal("connection closed before a result arrived");
    return exit_code;
}

/** Flag scan and mode dispatch.  Throws (qb::FatalError, library
 *  preconditions) instead of exiting; main() owns the catch. */
int
run(int argc, char **argv)
{
    CliOptions cli;
    // Integer flags: the whole value must be an integer in range, or
    // the run is a usage error.  The thread-count bound keeps a typo
    // from starting a pool of millions of workers.
    constexpr std::int64_t kMaxThreads = 1024;
    constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
    const struct
    {
        const char *flag;
        std::int64_t *value;
        std::int64_t min, max;
    } int_flags[] = {
        {"--analysis-window", &cli.analysisWindow, 0, kMax},
        {"--budget", &cli.budget, -1,
         std::numeric_limits<std::int64_t>::max()},
        {"--jobs", &cli.jobs, 1, kMaxThreads},
        {"--parallel", &cli.parallel, 1, kMaxThreads},
        {"--queue", &cli.queue, 1, kMax},
        {"--max-connections", &cli.maxConnections, 0, kMax},
        {"--max-inflight", &cli.maxInflight, 0, kMax},
        {"--idle-timeout", &cli.idleTimeout, 0, kMax},
        {"--program-cache", &cli.programCache, 0, kMax},
        {"--result-cache", &cli.resultCache, 0, kMax},
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto int_flag =
            std::find_if(std::begin(int_flags), std::end(int_flags),
                         [&arg](const auto &f) { return arg == f.flag; });
        if (int_flag != std::end(int_flags) && i + 1 < argc) {
            const auto value =
                qb::parseInt(argv[++i], int_flag->min, int_flag->max);
            if (!value) {
                usage(argv[0]);
                return 2;
            }
            *int_flag->value = *value;
        } else if (arg == "--quiet") {
            cli.quiet = true;
        } else if (arg == "--dump-circuit") {
            cli.dump = true;
        } else if (arg == "--no-cex") {
            cli.want_cex = false;
        } else if (arg == "--clean") {
            cli.clean = true;
        } else if (arg == "--lint") {
            cli.lint = true;
        } else if (arg == "--no-lint") {
            cli.noLint = true;
        } else if (arg.rfind("--analysis=", 0) == 0) {
            cli.analysisSpec = arg.substr(std::strlen("--analysis="));
        } else if (arg == "--analysis" && i + 1 < argc) {
            cli.analysisSpec = argv[++i];
        } else if (arg == "--json") {
            cli.json = true;
        } else if (arg == "--shutdown") {
            cli.shutdown_server = true;
        } else if (arg == "--stats") {
            cli.stats = true;
        } else if (arg == "--serve" && i + 1 < argc) {
            cli.servePath = argv[++i];
        } else if (arg == "--serve-tcp" && i + 1 < argc) {
            cli.serveTcp = argv[++i];
        } else if (arg == "--connect" && i + 1 < argc) {
            cli.connectPath = argv[++i];
        } else if (arg == "--connect-tcp" && i + 1 < argc) {
            cli.connectTcp = argv[++i];
        } else if ((arg == "--auth-token" || arg == "--token") &&
                   i + 1 < argc) {
            cli.token = argv[++i];
            cli.tokenSet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            usage(argv[0]);
            return 2;
        } else if (cli.path.empty()) {
            cli.path = arg;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    const bool serve =
        !cli.servePath.empty() || !cli.serveTcp.empty();
    const bool connect =
        !cli.connectPath.empty() || !cli.connectTcp.empty();
    if (serve && connect) {
        usage(argv[0]);
        return 2;
    }
    if (!cli.connectPath.empty() && !cli.connectTcp.empty()) {
        usage(argv[0]);
        return 2;
    }
    if (serve && !cli.path.empty()) {
        usage(argv[0]);
        return 2;
    }
    if ((cli.shutdown_server || cli.stats) && !connect) {
        usage(argv[0]);
        return 2;
    }
    if (!serve && !cli.shutdown_server && !cli.stats &&
        cli.path.empty()) {
        usage(argv[0]);
        return 2;
    }
    // Lint is a local, frontend-only mode.
    if (cli.lint && (serve || connect)) {
        usage(argv[0]);
        return 2;
    }

    if (serve)
        return runServer(cli);
    if (connect)
        return runClient(cli);
    if (cli.lint)
        return runLint(cli);
    return runLocal(cli);
}

} // namespace

int
main(int argc, char **argv)
{
    // Exceptions never escape main - including from the argument
    // scan, not just the mode dispatch.
    try {
        return run(argc, argv);
    } catch (const qb::FatalError &e) {
        // User errors - unreadable input, an unwritable/busy socket
        // path, a program that fails to parse - exit with ONE clean
        // line on stderr, never an unhandled throw.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        // Library preconditions (std::invalid_argument from the
        // generators and friends) surface as clean CLI errors, not
        // crashes.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
