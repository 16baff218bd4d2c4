/**
 * @file
 * Caches of the qborrow serving tier.
 *
 * The daemon of server/server.h shares one scheduler pool across
 * requests, but before this layer every request still re-parsed,
 * re-elaborated, re-encoded and re-solved its program from scratch.
 * For the serving workloads the daemon exists for - benchmark farms
 * and CI fleets hammering one process with the SAME programs over and
 * over - repeated work should become cache hits.  Two process-wide,
 * thread-safe, bounded caches provide that:
 *
 *   - ProgramCache hash-conses submitted SOURCES: one entry per
 *     distinct program text, holding the elaborated circuit (or the
 *     elaboration error, so malformed programs fail fast on
 *     resubmission too) and the single-flight state of the requests
 *     verifying it.  A hit skips parsing and elaboration; the
 *     verification itself always runs in fresh, request-local
 *     sessions.
 *
 *   - ResultCache memoizes finished VERDICTS: (source hash, options
 *     fingerprint) -> the complete core::ProgramResult.  A hit
 *     answers without touching the scheduler at all, and because the
 *     stored struct is re-serialized verbatim, the report is
 *     byte-identical to the run that produced it.
 *
 * Both caches are LRU with a fixed capacity (capacity 0 disables a
 * cache entirely) and expose hit/miss/eviction counters, surfaced by
 * the server's `stats` op.  Entries are handed out as shared_ptrs, so
 * eviction under a concurrent user is safe: the entry dies with its
 * last user, never under one.
 */

#ifndef QB_SERVING_CACHE_H
#define QB_SERVING_CACHE_H

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "core/verifier.h"
#include "lang/elaborate.h"

namespace qb::serving {

/** FNV-1a 64-bit hash of a program source (the hash-consing key). */
std::uint64_t hashSource(const std::string &source);

/** Hit/miss/eviction counters of one cache (monotonic). */
struct CacheCounters
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0; ///< live entries right now
};

/**
 * One hash-consed program: the elaboration result that later requests
 * for the same source reuse.
 *
 * The immutable part (source, program, elaborationError) is fixed at
 * construction.  The mutable part - the single-flight set - is
 * guarded by `mutex`; see ServingTier for the locking discipline.
 */
struct ProgramEntry
{
    /** Exact program text (collision guard for the 64-bit hash). */
    std::shared_ptr<const std::string> source;
    std::uint64_t hash = 0;

    /** Elaborated circuit; null when elaboration failed. */
    std::shared_ptr<const lang::ElaboratedProgram> program;
    /** Elaboration error message (negative caching); empty on
     *  success. */
    std::string elaborationError;

    /** @name Single-flight state, guarded by mutex. @{ */
    std::mutex mutex;
    std::condition_variable cv;
    /** Options fingerprints currently being verified (single-flight:
     *  identical concurrent submissions wait here instead of
     *  duplicating the SAT work). */
    std::set<std::string> computing;
    /** @} */
};

/**
 * Bounded LRU cache of hash-consed programs.  acquire() elaborates on
 * a miss (outside the cache lock; a racing duplicate elaboration is
 * resolved first-insert-wins).  Thread-safe.
 */
class ProgramCache
{
  public:
    /** @p capacity 0 disables caching: every acquire() returns a
     *  fresh, unshared entry. */
    explicit ProgramCache(std::size_t capacity);

    /**
     * The entry for @p source, creating (and elaborating) it on a
     * miss.  Never returns null; check elaborationError for negative
     * entries.
     */
    std::shared_ptr<ProgramEntry> acquire(const std::string &source);

    CacheCounters counters() const;

  private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    /** hash -> entry; guarded by mutex_. */
    std::map<std::uint64_t, std::shared_ptr<ProgramEntry>> entries_;
    /** LRU order, most recent at the front; guarded by mutex_. */
    std::list<std::uint64_t> lru_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;

    void touchLocked(std::uint64_t hash);
};

/**
 * Bounded LRU cache of finished verification results, keyed by
 * (source hash, options fingerprint) with the exact source retained
 * as a collision guard.  Thread-safe.
 */
class ResultCache
{
  public:
    /** @p capacity 0 disables caching. */
    explicit ResultCache(std::size_t capacity);

    /** The stored result of (@p hash, @p options_key), or null.
     *  @p source must byte-match the stored program.  A found result
     *  counts a hit; a null one counts a miss only when
     *  @p count_miss is set (a recheck of a request already counted
     *  as a miss passes false). */
    std::shared_ptr<const core::ProgramResult>
    lookup(std::uint64_t hash, const std::string &source,
           const std::string &options_key, bool count_miss = true);

    /** Memoize @p result (no-op at capacity 0).  @p source is shared,
     *  not copied. */
    void insert(std::uint64_t hash,
                std::shared_ptr<const std::string> source,
                const std::string &options_key,
                core::ProgramResult result);

    CacheCounters counters() const;

  private:
    struct Entry
    {
        std::shared_ptr<const std::string> source;
        std::shared_ptr<const core::ProgramResult> result;
    };

    static std::string keyOf(std::uint64_t hash,
                             const std::string &options_key);

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_; ///< guarded by mutex_
    std::list<std::string> lru_;           ///< guarded by mutex_
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;

    void touchLocked(const std::string &key);
};

} // namespace qb::serving

#endif // QB_SERVING_CACHE_H
