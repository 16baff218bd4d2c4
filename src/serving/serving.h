/**
 * @file
 * ServingTier: the request-to-engine layer of the qborrow daemon.
 *
 * One ServingTier sits between the server's request workers and
 * core::verifyAll(), composing the two caches of serving/cache.h into
 * the full serving policy for a verify request:
 *
 *   1. RESULT HIT - the (source, options) pair has a memoized
 *      verdict: replay the stored per-qubit results through the
 *      observer and return the stored ProgramResult, byte-identical
 *      to the run that produced it.  No scheduler work at all.
 *   2. PROGRAM HIT, no verdict - the source is known: skip parsing
 *      and elaboration, and verify the cached program.
 *   3. MISS - elaborate (cached for the next request), then verify.
 *
 * Every verification builds fresh sessions for its request and drops
 * them when it returns, so nothing but the elaborated program and the
 * memoized results outlives a request.
 *
 * Identical concurrent submissions are SINGLE-FLIGHT per (program,
 * options fingerprint): one request computes, the others wait on the
 * entry and answer from the result cache the moment the computer
 * publishes - unless the computer is cancelled, in which case the
 * next waiter takes over the computation.  Cancellation is honored at
 * every stage: a cancelled computer's result is NOT memoized (it
 * contains Unknown verdicts) and a cancelled waiter settles with a
 * cancelled outcome immediately.
 */

#ifndef QB_SERVING_SERVING_H
#define QB_SERVING_SERVING_H

#include <atomic>
#include <memory>
#include <string>

#include "core/engine.h"
#include "serving/cache.h"

namespace qb::serving {

/** Capacity knobs of the tier's two caches. */
struct ServingOptions
{
    /** Distinct programs kept hash-consed (0 disables). */
    std::size_t programCacheCapacity = 64;
    /** Memoized (program, options) verdicts kept (0 disables). */
    std::size_t resultCacheCapacity = 256;
};

class ServingTier
{
  public:
    /** How a verify() call was answered. */
    struct Outcome
    {
        core::ProgramResult result;
        /** Request failed before verification (elaboration error). */
        bool failed = false;
        std::string error;
        /** Answered from the result cache (no SAT work). */
        bool fromResultCache = false;
    };

    explicit ServingTier(ServingOptions options);

    /**
     * Serve one verify request.
     *
     * @param source       program text (the cache key).
     * @param engine_opts  fully RESOLVED engine options (server
     *                     defaults + per-request overrides); the
     *                     fairnessBand field is overridden by the
     *                     request's own band.
     * @param check_clean  clean-ancilla checking on/off.
     * @param options_key  fingerprint of every option that affects
     *                     the result (see optionsFingerprint());
     *                     result-cache key half and single-flight
     *                     key.
     * @param observer     per-qubit streaming callback (replayed
     *                     verbatim on a result hit).
     * @param scheduler    the process-wide pool.
     * @param cancel       per-request cancellation handle (may be
     *                     null).
     */
    Outcome verify(const std::string &source,
                   core::EngineOptions engine_opts, bool check_clean,
                   const std::string &options_key,
                   const core::ResultObserver &observer,
                   const std::shared_ptr<core::Scheduler> &scheduler,
                   const std::shared_ptr<core::CancelSource> &cancel);

    /**
     * Fingerprint of the options that affect a verification RESULT:
     * lane configuration, clean-ancilla checking,
     * counterexample extraction, conflict budget and the static
     * analysis options (which decide the report's discharge
     * counters).  Deliberately excludes fairnessBand (scheduling
     * only) and pool sizing.
     */
    static std::string
    optionsFingerprint(const core::EngineOptions &engine_opts,
                       bool check_clean);

    CacheCounters programCounters() const;
    CacheCounters resultCounters() const;

  private:
    ProgramCache programs_;
    ResultCache results_;
    /** Fairness bands handed to verifying requests (1..1024; band 0
     *  is the default band of non-server work). */
    std::atomic<unsigned> bandCounter_{0};
};

} // namespace qb::serving

#endif // QB_SERVING_SERVING_H
