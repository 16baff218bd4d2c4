/**
 * @file
 * Shared pieces of the qbbench harness: the span recorder used by the
 * traced runs, a minimal JSON writer for the raw pass record, process
 * resource probes, and the engine options the benchmark pins.
 *
 * One qbbench process runs ONE pass of one workload (set-up, then the
 * timed phase) and prints one raw JSON record; perfbench/run.py runs
 * passes until the run's time is spent and turns the records into
 * metrics.  A process per pass gives every pass the cold heap a CLI
 * user's process has, and makes cpu and peak-RSS figures per pass.
 */

#ifndef QBBENCH_BENCH_H
#define QBBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/verifier.h"
#include "inputs.h"

namespace qbbench {

/** SAT workers pinned for every workload (recorded in each result). */
constexpr unsigned kJobs = 2;


/**
 * Engine options of `qborrow` run with no flags except `--jobs 2`:
 * lane A alone, inprocessing every 16 queries, binary analysis on,
 * every static discharger on, counterexamples on, no budget.  These
 * are the library defaults, so a later change to a default is
 * measured as users see it.
 */
qb::core::EngineOptions cliEngineOptions();

/** Seconds on the steady clock since the process started timing. */
double now();

/** User + system CPU seconds of this process (all threads). */
double cpuSeconds();

/** Peak resident set size of this process, in KiB. */
long peakRssKb();

/** One traced interval; parent is an index into the span list. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::int64_t id = -1; ///< program or request the span belongs to
};

/**
 * In-memory span recorder.  Disabled recorders do nothing, so the
 * untraced code path pays one branch per boundary.  Spans are written
 * out with the pass record when the pass ends.
 */
class Trace
{
  public:
    explicit Trace(bool enabled) : enabled_(enabled) {}

    /** Open a span; returns its index (-1 when disabled). */
    int open(const char *name, int parent, std::int64_t id);
    void close(int index);
    /** Record an interval measured elsewhere. */
    int add(const char *name, double start, double end, int parent,
            std::int64_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Scoped span: open on construction, close on destruction. */
    class Scope
    {
      public:
        Scope(Trace &trace, const char *name, int parent,
              std::int64_t id)
            : trace_(trace), index_(trace.open(name, parent, id))
        {
        }
        ~Scope() { trace_.close(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        int index() const { return index_; }

      private:
        Trace &trace_;
        int index_;
    };

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** Append-only JSON text builder for the raw pass record. */
class Json
{
  public:
    Json &beginObject();
    Json &endObject();
    Json &beginArray();
    Json &endArray();
    Json &key(const std::string &name);
    Json &value(double v);
    Json &value(std::int64_t v);
    Json &value(std::size_t v) { return value(static_cast<std::int64_t>(v)); }
    Json &value(int v) { return value(static_cast<std::int64_t>(v)); }
    Json &value(bool v);
    Json &value(const std::string &v);
    Json &value(const char *v) { return value(std::string(v)); }
    /** Emit an array of spans. */
    Json &spans(const std::vector<Span> &spans);

    const std::string &str() const { return out_; }

  private:
    void separate();
    std::string out_;
    bool needComma_ = false;
};

/** Correctness tallies of a pass. */
struct Tally
{
    std::int64_t attempted = 0; ///< programs or requests issued
    std::int64_t wrong = 0;     ///< verdict differs from known answer
    std::int64_t unknown = 0;   ///< Unknown / NotClassical verdicts
    std::int64_t errors = 0;    ///< error frames, exceptions
    std::int64_t refused = 0;   ///< admission refusals (queue full)
    std::vector<std::string> messages; ///< first few failure details

    void fail(std::int64_t &counter, const std::string &message);
    /** Count one answered program once: as unknown when a verdict is
     *  undecided, else as wrong when a verdict differs from the known
     *  answer or @p bad_cex (a failed counterexample check) is set. */
    void judge(const Input &input,
               const std::vector<qb::core::Verdict> &verdicts,
               const std::string &bad_cex);
};

/** Facts and tallies every raw pass record starts with. */
void writeHeader(Json &json, const std::string &workload,
                 std::uint64_t seed, bool traced, double setup_seconds);
void writeTally(Json &json, const Tally &tally);

/** Entry points of the workloads (each prints one raw record). */
int runOneShot(const std::string &workload, std::uint64_t seed,
               bool traced);
int runServeMix(std::uint64_t seed, bool traced);

} // namespace qbbench

#endif // QBBENCH_BENCH_H
