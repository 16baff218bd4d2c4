/**
 * @file
 * serve-mix: the daemon path.  An in-process server::Server with the
 * daemon's default options (jobs pinned) listens on a Unix socket in
 * a temporary directory; one client thread drives a closed loop over
 * two connections, each with one `verify` outstanding, through the
 * seeded request stream of inputs.h.
 *
 * Everything is observed from outside, through the protocol: latency
 * is send -> terminal frame, admission is send -> `accepted`, engine
 * time is the report's total_seconds, and the serving counters are
 * `stats` deltas over the timed phase.  Result frames are kept as
 * text during the timed phase and checked against the known answers
 * after it.
 */

#include <poll.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "inputs.h"
#include "server/protocol.h"
#include "server/server.h"
#include "support/strings.h"

namespace qbbench {

namespace {

using qb::server::JsonValue;

/** One client connection with a line-splitting read buffer. */
class Connection
{
  public:
    explicit Connection(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw std::runtime_error("socket() failed");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            ::close(fd_);
            throw std::runtime_error("connect(" + path + ") failed");
        }
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd() const { return fd_; }

    void send(const std::string &line)
    {
        std::size_t done = 0;
        while (done < line.size()) {
            const ssize_t n = ::send(fd_, line.data() + done,
                                     line.size() - done, MSG_NOSIGNAL);
            if (n <= 0)
                throw std::runtime_error("send to server failed");
            done += std::size_t(n);
        }
    }

    /** Read what is available; false on EOF. */
    bool fill()
    {
        char chunk[1 << 16];
        const ssize_t n = ::read(fd_, chunk, sizeof chunk);
        if (n <= 0)
            return false;
        buffer_.append(chunk, std::size_t(n));
        return true;
    }

    /** Pop one complete line, if buffered. */
    bool nextLine(std::string &line)
    {
        const std::size_t nl = buffer_.find('\n', start_);
        if (nl == std::string::npos) {
            buffer_.erase(0, start_);
            start_ = 0;
            return false;
        }
        line.assign(buffer_, start_, nl - start_);
        start_ = nl + 1;
        return true;
    }

    /** Block until one complete line arrives. */
    std::string readLine()
    {
        std::string line;
        while (!nextLine(line)) {
            if (!fill())
                throw std::runtime_error("server closed the connection");
        }
        return line;
    }

  private:
    int fd_ = -1;
    std::string buffer_;
    std::size_t start_ = 0;
};

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.compare(0, std::strlen(prefix), prefix) == 0;
}

/** Member @p key of a server frame; a missing member is a protocol
 *  error, reported like any other failed check. */
const JsonValue &
at(const JsonValue &node, const char *key)
{
    const JsonValue *member = node.find(key);
    if (member == nullptr)
        throw std::runtime_error(std::string("frame lacks \"") + key +
                                 "\"");
    return *member;
}

std::string
verifyFrame(const Input &input, std::size_t id)
{
    std::string frame = qb::format(
        "{\"op\": \"verify\", \"id\": %zu, \"name\": \"%s\", \"source\": "
        "\"%s\"",
        id, qb::jsonEscape(input.name).c_str(),
        qb::jsonEscape(input.source).c_str());
    if (input.noCounterexample)
        frame += ", \"options\": {\"counterexample\": false}";
    return frame + "}\n";
}

/** Counters of a `stats` frame the benchmark reports as deltas. */
std::map<std::string, double>
statsCounters(const std::string &frame)
{
    const JsonValue v = JsonValue::parse(frame);
    std::map<std::string, double> out;
    const auto num = [](const JsonValue *node,
                        std::initializer_list<const char *> path) {
        for (const char *k : path)
            node = node ? node->find(k) : nullptr;
        return node ? node->asNumber() : 0.0;
    };
    out["serving.result_hits"] = num(&v, {"caches", "result", "hits"});
    out["serving.result_misses"] = num(&v, {"caches", "result", "misses"});
    out["serving.program_hits"] = num(&v, {"caches", "program", "hits"});
    out["serving.program_misses"] =
        num(&v, {"caches", "program", "misses"});
    out["serving.program_evictions"] =
        num(&v, {"caches", "program", "evictions"});
    out["serving.warm_verifies"] = num(&v, {"caches", "warm_verifies"});
    out["server.rejected"] = num(&v, {"counters", "rejected"});
    out["server.errors"] = num(&v, {"counters", "errors"});
    return out;
}

qb::core::Verdict
verdictFromName(const std::string &name)
{
    for (auto v : {qb::core::Verdict::Safe, qb::core::Verdict::Unsafe,
                   qb::core::Verdict::Unknown,
                   qb::core::Verdict::NotClassical}) {
        if (name == qb::core::verdictName(v))
            return v;
    }
    throw std::runtime_error("unknown verdict " + name);
}

/** Timeline of one request, filled during the timed phase. */
struct Sent
{
    double sent = 0.0;
    double accepted = -1.0;
    double done = 0.0;
    std::string terminal; ///< the result or error frame, unparsed
};

/** Check one terminal frame against the known answer and add its
 *  report's layer counters (repeats replay stored reports, so only
 *  computed requests count). */
void
checkTerminal(const Input &input, const std::string &frame, Tally &tally,
              std::map<std::string, double> &c, double &engine_seconds)
{
    if (startsWith(frame, "{\"type\": \"error\"")) {
        const std::string message =
            at(JsonValue::parse(frame), "message").asString();
        if (startsWith(message, "queue full"))
            tally.fail(tally.refused, input.name + ": " + message);
        else
            tally.fail(tally.errors, input.name + ": " + message);
        return;
    }
    const JsonValue v = JsonValue::parse(frame);
    const JsonValue *report = v.find("report");
    if (at(v, "status").asString() != "done" || report == nullptr) {
        tally.fail(tally.unknown, input.name + ": not done");
        return;
    }
    engine_seconds = at(*report, "total_seconds").asNumber();
    const bool computed = input.group != Group::ExactRepeat;
    std::vector<qb::core::Verdict> verdicts;
    std::string bad_cex;
    std::unique_ptr<qb::lang::ElaboratedProgram> program;
    for (const JsonValue &q : at(*report, "qubits").items()) {
        const auto verdict = verdictFromName(at(q, "verdict").asString());
        verdicts.push_back(verdict);
        const JsonValue *cex = q.find("counterexample");
        const bool has_cex = cex != nullptr && !cex->isNull();
        if (verdict == qb::core::Verdict::Unsafe &&
            has_cex == input.noCounterexample) {
            bad_cex = input.name + ": counterexample " +
                      (has_cex ? "sent" : "missing");
        } else if (has_cex) {
            if (!program)
                program = std::make_unique<qb::lang::ElaboratedProgram>(
                    qb::lang::elaborateSource(input.source));
            std::vector<bool> bits;
            for (const JsonValue &b : cex->items())
                bits.push_back(b.asInt() != 0);
            const auto qubit = qb::ir::QubitId(at(q, "qubit").asInt());
            if (!counterexampleHolds(*program, qubit, bits))
                bad_cex = input.name + ": counterexample does not hold";
        }
        if (!computed)
            continue;
        c["core.build_s"] += at(q, "build_seconds").asNumber();
        c["sat.encode_s"] += at(q, "encode_seconds").asNumber();
        c["sat.solve_s"] += at(q, "solve_seconds").asNumber();
        c["core.formula_nodes"] += at(q, "formula_nodes").asNumber();
        c["sat.cnf_clauses"] += at(q, "cnf_clauses").asNumber();
        c["sat.conflicts"] += at(q, "conflicts").asNumber();
        if (at(q, "solved_structurally").asBool())
            c["core.structural"] += 1;
        if (verdict == qb::core::Verdict::Unsafe)
            c["core.unsafe"] += 1;
        if (has_cex)
            c["core.counterexamples"] += 1;
    }
    tally.judge(input, verdicts, bad_cex);
    if (!computed)
        return;
    const JsonValue &solver = at(*report, "solver");
    c["sat.learnt_peak"] += at(solver, "peak_learnts").asNumber();
    c["sat.arena_peak_kw"] +=
        at(solver, "arena_peak_words").asNumber() / 1000.0;
    c["sat.gc_runs"] += at(solver, "gc_runs").asNumber();
    c["sat.inprocess_runs"] += at(solver, "inprocess_runs").asNumber();
    const JsonValue &analysis = at(*report, "analysis");
    c["analysis.discharged"] +=
        at(analysis, "analysis_discharged").asNumber();
    c["analysis.discharged_affine"] += at(analysis, "affine").asNumber();
    c["analysis.discharged_permutation"] +=
        at(analysis, "permutation").asNumber();
    c["analysis.discharged_mirror"] += at(analysis, "mirror").asNumber();
    c["analysis.discharged_support"] +=
        at(analysis, "support").asNumber();
}

/** Temporary directory for the socket, removed on scope exit. */
class SocketDir
{
  public:
    SocketDir()
    {
        char name[] = "qbsock-XXXXXX";
        if (::mkdtemp(name) == nullptr)
            throw std::runtime_error("mkdtemp failed");
        dir_ = name;
    }
    ~SocketDir()
    {
        ::unlink(path().c_str());
        ::rmdir(dir_.c_str());
    }
    SocketDir(const SocketDir &) = delete;
    SocketDir &operator=(const SocketDir &) = delete;
    std::string path() const { return dir_ + "/s"; }

  private:
    std::string dir_;
};

} // namespace

int
runServeMix(std::uint64_t seed, bool traced)
{
    const std::vector<Input> stream = serveMixStream(seed);
    SocketDir dir;

    // Set-up: daemon construction + start() until the first pong.  A
    // pass sets up once (a daemon takes ~0.2 s to stop); the run's
    // median is over its many passes.
    const double setup_begin = now();
    qb::server::ServerOptions options;
    options.socketPath = dir.path();
    options.engine = cliEngineOptions();
    options.jobs = kJobs;
    options.concurrency = 2;
    qb::server::Server server(std::move(options));
    server.start();
    std::array<std::unique_ptr<Connection>, 2> conns;
    for (auto &c : conns)
        c = std::make_unique<Connection>(dir.path());
    conns[0]->send("{\"op\": \"ping\", \"id\": 0}\n");
    if (!startsWith(conns[0]->readLine(), "{\"type\": \"pong\""))
        throw std::runtime_error("no pong from the server");
    const double setup_seconds = now() - setup_begin;

    const std::string stats_frame = "{\"op\": \"stats\", \"id\": 0}\n";
    conns[0]->send(stats_frame);
    const auto stats_before = statsCounters(conns[0]->readLine());

    // Timed phase: closed loop, one verify outstanding per connection.
    Trace trace(traced);
    std::vector<Sent> sent(stream.size());
    std::array<long, 2> outstanding{-1, -1};
    std::size_t next = 0;
    std::size_t completed = 0;
    const auto sendNext = [&](std::size_t c) {
        if (next >= stream.size())
            return;
        outstanding[c] = long(next);
        sent[next].sent = now();
        conns[c]->send(verifyFrame(stream[next], next));
        ++next;
    };
    const double cpu_begin = cpuSeconds();
    const double wall_begin = now();
    sendNext(0);
    sendNext(1);
    while (completed < stream.size()) {
        pollfd fds[2] = {{conns[0]->fd(), POLLIN, 0},
                         {conns[1]->fd(), POLLIN, 0}};
        if (::poll(fds, 2, -1) < 0)
            throw std::runtime_error("poll failed");
        for (std::size_t c = 0; c < 2; ++c) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            if (!conns[c]->fill())
                throw std::runtime_error("server closed a connection");
            std::string line;
            while (conns[c]->nextLine(line)) {
                Sent &s = sent[std::size_t(outstanding[c])];
                if (startsWith(line, "{\"type\": \"accepted\"")) {
                    s.accepted = now();
                } else if (startsWith(line, "{\"type\": \"result\"") ||
                           startsWith(line, "{\"type\": \"error\"")) {
                    s.done = now();
                    s.terminal = std::move(line);
                    ++completed;
                    sendNext(c);
                }
            }
        }
    }
    const double wall = now() - wall_begin;
    const double cpu = cpuSeconds() - cpu_begin;

    conns[0]->send(stats_frame);
    auto counters = statsCounters(conns[0]->readLine());
    for (auto &[name, value] : counters)
        value -= stats_before.at(name);
    conns = {};
    server.shutdown();

    // Check every answer; record the per-request timeline.
    Tally tally;
    Json json;
    json.beginObject();
    writeHeader(json, "serve-mix", seed, traced, setup_seconds);
    json.key("requests").beginArray();
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const Sent &s = sent[i];
        ++tally.attempted;
        double engine = -1.0;
        checkTerminal(stream[i], s.terminal, tally, counters, engine);
        const int root =
            trace.add("server.request", s.sent, s.done, -1, std::int64_t(i));
        if (s.accepted >= 0) {
            trace.add("server.admit", s.sent, s.accepted, root,
                      std::int64_t(i));
            trace.add("server.stream", s.accepted, s.done, root,
                      std::int64_t(i));
        }
        json.beginObject();
        json.key("group").value(groupName(stream[i].group));
        json.key("latency_s").value(s.done - s.sent);
        json.key("admit_s").value(s.accepted >= 0 ? s.accepted - s.sent
                                                  : -1.0);
        json.key("engine_s").value(engine);
        json.endObject();
    }
    json.endArray();
    json.key("wall_s").value(wall);
    json.key("cpu_s").value(cpu);
    json.key("peak_rss_kb").value(std::int64_t(peakRssKb()));
    writeTally(json, tally);
    json.key("counters").beginObject();
    for (const auto &[name, value] : counters)
        json.key(name).value(value);
    json.endObject();
    json.key("spans").spans(trace.spans());
    json.endObject();
    std::printf("%s\n", json.str().c_str());
    const bool ok = tally.wrong == 0 && tally.unknown == 0 &&
                    tally.errors == 0 && tally.refused == 0;
    return ok ? 0 : 1;
}

} // namespace qbbench
