/**
 * @file
 * qbbench: runs one pass of one workload and prints its raw record.
 *
 *   qbbench --workload mcx-cli|adder-sat|serve-mix --seed N [--trace]
 *
 * Exit status: 0 when the pass ran and every verdict matched its
 * known answer, 1 on a wrong verdict or failed check, 2 on a usage
 * error.  The record is printed either way, so the caller can report
 * what failed.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "support/strings.h"

namespace qbbench {

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kOrigin = Clock::now();

} // namespace

qb::core::EngineOptions
cliEngineOptions()
{
    qb::core::EngineOptions options;
    options.jobs = kJobs;
    return options;
}

double
now()
{
    return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

long
peakRssKb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

int
Trace::open(const char *name, int parent, std::int64_t id)
{
    if (!enabled_)
        return -1;
    spans_.push_back({name, now(), 0.0, parent, id});
    return int(spans_.size()) - 1;
}

void
Trace::close(int index)
{
    if (index >= 0)
        spans_[std::size_t(index)].end = now();
}

int
Trace::add(const char *name, double start, double end, int parent,
           std::int64_t id)
{
    if (!enabled_)
        return -1;
    spans_.push_back({name, start, end, parent, id});
    return int(spans_.size()) - 1;
}

void
Json::separate()
{
    if (needComma_)
        out_ += ',';
    needComma_ = false;
}

Json &
Json::beginObject()
{
    separate();
    out_ += '{';
    return *this;
}

Json &
Json::endObject()
{
    out_ += '}';
    needComma_ = true;
    return *this;
}

Json &
Json::beginArray()
{
    separate();
    out_ += '[';
    return *this;
}

Json &
Json::endArray()
{
    out_ += ']';
    needComma_ = true;
    return *this;
}

Json &
Json::key(const std::string &name)
{
    separate();
    out_ += '"' + qb::jsonEscape(name) + "\":";
    return *this;
}

Json &
Json::value(double v)
{
    separate();
    out_ += qb::format("%.9g", v);
    needComma_ = true;
    return *this;
}

Json &
Json::value(std::int64_t v)
{
    separate();
    out_ += std::to_string(v);
    needComma_ = true;
    return *this;
}

Json &
Json::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    needComma_ = true;
    return *this;
}

Json &
Json::value(const std::string &v)
{
    separate();
    out_ += '"' + qb::jsonEscape(v) + '"';
    needComma_ = true;
    return *this;
}

Json &
Json::spans(const std::vector<Span> &spans)
{
    beginArray();
    for (const Span &s : spans) {
        beginObject();
        key("name").value(s.name);
        key("start").value(s.start);
        key("end").value(s.end);
        key("parent").value(s.parent);
        key("id").value(s.id);
        endObject();
    }
    return endArray();
}

void
Tally::fail(std::int64_t &counter, const std::string &message)
{
    ++counter;
    if (messages.size() < 8)
        messages.push_back(message);
}

void
Tally::judge(const Input &input,
             const std::vector<qb::core::Verdict> &verdicts,
             const std::string &bad_cex)
{
    for (auto v : verdicts) {
        if (v == qb::core::Verdict::Unknown ||
            v == qb::core::Verdict::NotClassical) {
            fail(unknown, input.name + ": undecided");
            return;
        }
    }
    const std::string mismatch = checkVerdicts(input, verdicts);
    if (!mismatch.empty())
        fail(wrong, mismatch);
    else if (!bad_cex.empty())
        fail(wrong, bad_cex);
}

void
writeHeader(Json &json, const std::string &workload, std::uint64_t seed,
            bool traced, double setup_seconds)
{
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    json.key("workload").value(workload);
    json.key("seed").value(std::int64_t(seed));
    json.key("traced").value(traced);
    json.key("jobs").value(int(kJobs));
    json.key("hardware_threads")
        .value(int(std::thread::hardware_concurrency()));
    json.key("build_type").value(QBBENCH_BUILD_TYPE);
    json.key("ndebug").value(ndebug);
    json.key("compiler").value(QBBENCH_CXX_COMPILER);
    json.key("setup_s").value(setup_seconds);
}

void
writeTally(Json &json, const Tally &tally)
{
    json.key("attempted").value(tally.attempted);
    json.key("wrong").value(tally.wrong);
    json.key("unknown").value(tally.unknown);
    json.key("errors").value(tally.errors);
    json.key("refused").value(tally.refused);
    json.key("messages").beginArray();
    for (const std::string &m : tally.messages)
        json.value(m);
    json.endArray();
}

} // namespace qbbench

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload" && i + 1 < argc) {
            workload = argv[++i];
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--trace") {
            traced = true;
        } else {
            std::fprintf(stderr, "qbbench: unknown argument %s\n",
                         arg.c_str());
            return 2;
        }
    }
    try {
        if (workload == "mcx-cli" || workload == "adder-sat")
            return qbbench::runOneShot(workload, seed, traced);
        if (workload == "serve-mix")
            return qbbench::runServeMix(seed, traced);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "qbbench: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr,
                 "usage: qbbench --workload mcx-cli|adder-sat|serve-mix "
                 "--seed N [--trace]\n");
    return 2;
}
