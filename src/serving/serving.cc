#include "serving/serving.h"

#include <chrono>
#include <utility>

#include "support/logging.h"
#include "support/strings.h"

namespace qb::serving {

ServingTier::ServingTier(ServingOptions options)
    : programs_(options.programCacheCapacity),
      results_(options.resultCacheCapacity)
{
}

std::string
ServingTier::optionsFingerprint(const core::EngineOptions &engine_opts,
                                bool check_clean)
{
    // Everything that can change a VERDICT or a report field other
    // than timing goes in; scheduling-only knobs (fairnessBand and
    // jobs) stay out so they do not splinter the cache.
    std::string key = check_clean ? "clean;" : "dirty;";
    // Static-analysis options change report fields (the "analysis"
    // discharge counters) even though verdicts are unaffected, so they
    // key the cache too.
    const analysis::AnalysisOptions &an = engine_opts.analysis;
    key += format("an%d%d%d%d.w%u;", an.support ? 1 : 0,
                  an.mirror ? 1 : 0, an.affine ? 1 : 0,
                  an.permutation ? 1 : 0, an.permutationWindow);
    const core::VerifierOptions &lane = engine_opts.lane;
    const sat::SolverConfig &s = lane.solver;
    // Every field of VerifierOptions and SolverConfig; the
    // ServingTier fingerprint tests fail to compile when one is added.
    key += format("cb%lld.cex%d.pre%d;",
                  static_cast<long long>(s.conflictBudget),
                  lane.wantCounterexample ? 1 : 0, s.preprocess ? 1 : 0);
    return key;
}

ServingTier::Outcome
ServingTier::verify(const std::string &source,
                    core::EngineOptions engine_opts, bool check_clean,
                    const std::string &options_key,
                    const core::ResultObserver &observer,
                    const std::shared_ptr<core::Scheduler> &scheduler,
                    const std::shared_ptr<core::CancelSource> &cancel)
{
    const std::uint64_t hash = hashSource(source);
    const auto replay =
        [&observer](const core::ProgramResult &stored) -> Outcome {
        Outcome out;
        out.fromResultCache = true;
        // Stream the memoized per-qubit frames exactly as the cold
        // run did, then hand back the stored struct verbatim - the
        // serialized report is byte-identical to the run that
        // produced it.
        if (observer)
            for (const core::QubitResult &q : stored.qubits)
                observer(q);
        out.result = stored;
        return out;
    };

    if (const auto stored = results_.lookup(hash, source, options_key))
        return replay(*stored);

    // Hash-cons the program; a fresh entry elaborates here.
    const std::shared_ptr<ProgramEntry> entry = programs_.acquire(source);
    if (!entry->elaborationError.empty()) {
        Outcome out;
        out.failed = true;
        out.error = entry->elaborationError;
        return out;
    }

    // Single-flight per (program, options fingerprint).
    {
        std::unique_lock<std::mutex> lock(entry->mutex);
        while (entry->computing.count(options_key) != 0) {
            // An identical submission is computing right now: wait
            // for it to publish instead of duplicating the SAT work.
            entry->cv.wait_for(lock,
                               std::chrono::milliseconds(50));
            if (cancel && cancel->cancelRequested())
                break;
        }
        if (cancel && cancel->cancelRequested()) {
            // Cancelled while waiting on the computing twin: settle
            // with an empty result; the server layer reports
            // "cancelled" from the CancelSource state.
            return Outcome{};
        }
        // The computer publishes to the result cache BEFORE clearing
        // its computing mark, so a woken waiter hits here.  This
        // request already counted its miss above.
        if (const auto stored = results_.lookup(hash, source,
                                                options_key, false))
            return replay(*stored);
        entry->computing.insert(options_key);
    }

    // Each computed request gets the next band of a 1..1024 rotation,
    // so concurrent programs interleave fairly on the shared pool.
    engine_opts.fairnessBand =
        1 + (bandCounter_.fetch_add(1, std::memory_order_relaxed) &
             0x3ffu);
    Outcome out;
    bool threw = false;
    try {
        out.result = core::verifyAll(*entry->program, engine_opts,
                                     observer, check_clean, scheduler,
                                     cancel);
    } catch (const FatalError &e) {
        threw = true;
        out.failed = true;
        out.error = e.what();
    }

    {
        const std::lock_guard<std::mutex> guard(entry->mutex);
        // Clear the single-flight mark even on failure, so waiters
        // can take over.
        entry->computing.erase(options_key);
        const bool cancelled = cancel && cancel->cancelRequested();
        if (!threw && !cancelled)
            results_.insert(hash, entry->source, options_key,
                            out.result);
    }
    entry->cv.notify_all();
    return out;
}

CacheCounters
ServingTier::programCounters() const
{
    return programs_.counters();
}

CacheCounters
ServingTier::resultCounters() const
{
    return results_.counters();
}

} // namespace qb::serving
