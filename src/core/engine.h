/**
 * @file
 * Session-based verification engine.
 *
 * Verifying one qubit at a time would rebuild the circuit's formulas
 * per qubit, even though all qubits of a circuit share the same gate
 * DAG.  A VerificationEngine is the session object that hoists the
 * shared work:
 *
 *   - ONE bexp::Arena and ONE FormulaBuilder pass over the circuit,
 *     shared by all per-qubit conditions (6.1), (6.2) and the
 *     clean-ancilla criterion;
 *   - ONE lane preset deciding every condition: each condition is
 *     Tseitin-encoded into its own fresh solver, so the solver's
 *     whole-database preprocessing (bounded variable elimination)
 *     applies and independent conditions never wait on each other.
 *
 * All SAT work runs on a persistent core::Scheduler worker pool sized
 * to the hardware (or EngineOptions::jobs): conditions are unordered
 * (qubit, condition) pool tasks, and batch verification pipelines
 * whole circuits through the pool instead of spawning threads per
 * condition and barriering per qubit.
 *
 * The free functions of verifier.h remain as thin compatibility
 * wrappers over this class.
 */

#ifndef QB_CORE_ENGINE_H
#define QB_CORE_ENGINE_H

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "boolexpr/arena.h"
#include "core/scheduler.h"
#include "core/verifier.h"

namespace qb::core {

/** Configuration of a verification session. */
struct EngineOptions
{
    /**
     * The lane preset deciding every SAT query of the session: each
     * condition is encoded into a fresh solver built from
     * lane.solver and runs as an unordered pool task, so a program's
     * independent conditions fill every worker.
     *
     * The default is lane B, whose preset preprocesses (bounded
     * variable elimination) at solve entry.  This is the one place
     * the default lane is declared: the qborrow CLI and the daemon
     * take it from here.
     */
    VerifierOptions lane = VerifierOptions::laneB();

    /**
     * Worker threads in the scheduler pool backing this session;
     * 0 sizes the pool to std::thread::hardware_concurrency().  The
     * pool bounds the engine's parallelism: no thread is ever created
     * per condition or per query.
     */
    unsigned jobs = 0;

    /**
     * Scheduler fairness band of this session's condition tasks.
     * Sessions sharing one pool but belonging to different request
     * streams - distinct programs in qborrow server mode - should use
     * distinct bands: the pool drains bands round-robin, so a
     * program with a deep backlog of queries cannot starve a
     * newly-admitted program.  0 (the default) is the shared
     * band of standalone runs.
     */
    unsigned fairnessBand = 0;

    /**
     * Static condition dischargers (analysis/analyzer.h) consulted
     * before any SAT query is queued: a condition the analyzer proves
     * UNSAT from circuit structure skips encoding and solving
     * entirely.  Discharges are UNSAT-only, so verdicts and
     * counterexamples are identical to a SAT-only run; only the
     * skipped work (and the analysis counters) differ.  On by
     * default; analysis::AnalysisOptions::none() restores pure-SAT
     * behavior.  Result-affecting for caching purposes - the serving
     * tier folds these knobs into its options fingerprint.
     */
    analysis::AnalysisOptions analysis;

    /** Session deciding every query with @p options. */
    static EngineOptions singleLane(const VerifierOptions &options);
};

/** Streaming consumer of per-qubit results (batch verification). */
using ResultObserver = std::function<void(const QubitResult &)>;

class VerificationEngine;

/**
 * Cooperative cancellation handle for an in-flight verification
 * request (server mode: a client cancels a submitted program while its
 * queries are still running).
 *
 * One CancelSource is shared between the submitting side (which calls
 * requestCancel() from any thread) and the engine sessions doing the
 * work: every VerificationEngine constructed with this source attaches
 * itself, and requestCancel() flips the stop flag of each attached
 * engine's live queries - solvers poll that flag and bail within a
 * propagation round - then marks the engines cancelled so later
 * prepare() calls settle immediately with Verdict::Unknown.
 * Cancellation is a VERDICT downgrade, never a data race: queries
 * drain through the normal collect path and report Unknown.
 *
 * Thread-safe; requestCancel() is idempotent.
 */
class CancelSource
{
  public:
    /** Cancel: stop attached engines' queries, mark future work moot. */
    void requestCancel();

    /** Has requestCancel() been called? */
    bool cancelRequested() const
    {
        return flag.load(std::memory_order_acquire);
    }

  private:
    friend class VerificationEngine;
    void attach(VerificationEngine *engine);
    void detach(VerificationEngine *engine);

    mutable std::mutex mutex;
    std::vector<VerificationEngine *> engines; ///< guarded by mutex
    std::atomic<bool> flag{false};
};

/**
 * A verification session over one circuit.
 *
 * Construction runs the linear formula-building scan once; every
 * verify()/verifyCleanAncilla() call afterwards only pays for its own
 * conditions and SAT queries.  Sessions are single-threaded objects
 * from the caller's point of view (scheduler parallelism is internal):
 * all prepare/finish/verify calls must come from one thread.
 *
 * Counterexamples are read from the model of the solver that decided
 * the condition.  That solver is deterministic and sees only the
 * condition's CNF, so verdicts AND counterexamples are identical
 * across jobs counts and schedules.
 */
class VerificationEngine
{
  public:
    /** Cumulative session counters. */
    struct Stats
    {
        std::size_t satCalls = 0;        ///< solver queries issued
        std::size_t structural = 0;      ///< conditions folded to const
        std::size_t conditionHits = 0;   ///< condition cache hits
        std::size_t qubitsVerified = 0;
        /** @name Conditions proven UNSAT statically (no SAT query
         *  queued), total and per discharging pass.  Affine
         *  discharges additionally skip BUILDING the condition: the
         *  GF(2)-affine pass is consulted before the formula
         *  construction, window-free, so wide linear cones pay
         *  neither the (6.2) cofactor sweep nor any encoding. @{ */
        std::size_t analysisDischarged = 0;
        std::size_t analysisSupport = 0;
        std::size_t analysisMirror = 0;
        std::size_t analysisAffine = 0;
        std::size_t analysisPermutation = 0;
        /** @} */
        double formulaBuildSeconds = 0.0; ///< one-time circuit scan
    };

    /**
     * In-flight verification of one qubit: conditions built and
     * queries submitted to the scheduler, result not yet collected.
     * Obtained from prepare()/prepareCleanAncilla(), redeemed exactly
     * once with finish().  Move-only; destroying an unredeemed handle
     * cancels its queries.
     */
    class Pending;

    explicit VerificationEngine(
        const ir::Circuit &circuit, EngineOptions options = {},
        std::shared_ptr<Scheduler> scheduler = nullptr,
        std::shared_ptr<CancelSource> cancel = nullptr);
    ~VerificationEngine();

    VerificationEngine(const VerificationEngine &) = delete;
    VerificationEngine &operator=(const VerificationEngine &) = delete;

    /**
     * Verify safe uncomputation of dirty qubit @p q (Theorem 6.4),
     * like verifyQubit() but reusing all session state.
     */
    QubitResult verify(ir::QubitId q);

    /**
     * Verify the clean-ancilla criterion for @p q, like the free
     * verifyCleanAncilla() but reusing all session state.
     */
    QubitResult verifyCleanAncilla(ir::QubitId q);

    /**
     * Build the conditions of @p q and submit their SAT queries to the
     * scheduler without waiting: the pipelining half of verify().
     * Preparing several qubits before finishing the first keeps every
     * worker busy across qubit boundaries.
     */
    Pending prepare(ir::QubitId q);
    /** prepare() for the clean-ancilla criterion. */
    Pending prepareCleanAncilla(ir::QubitId q);
    /** Await @p pending's queries and assemble its QubitResult. */
    QubitResult finish(Pending pending);

    /**
     * Verify every qubit of the circuit in id order, streaming each
     * result through @p observer (when set) as it is produced.  The
     * whole circuit is pipelined: all conditions are prepared and
     * queued up front, results are collected in order.
     */
    ProgramResult verifyAllQubits(const ResultObserver &observer = {});

    const ir::Circuit &circuit() const { return circuit_; }
    const EngineOptions &options() const { return options_; }
    const Stats &stats() const { return engineStats; }

    /**
     * True once this session's CancelSource fired (or the session was
     * constructed from an already-cancelled source).  Cancelled
     * sessions settle every further prepare() immediately with
     * Verdict::Unknown and abandon their in-flight queries.
     */
    bool cancelled() const
    {
        return cancelled_.load(std::memory_order_acquire);
    }

    /**
     * The summed counters of the solvers behind every outcome this
     * session has collected (peak fields sum per-solver peaks): each
     * condition is decided in a throwaway solver, and without the
     * harvest its work would vanish with it.  A query abandoned before
     * collection (the speculative (6.2) query of an unsafe qubit) is
     * never counted, so the totals are the same at any --jobs.  The
     * batch drivers copy this into ProgramResult::solverTotals so
     * reports and benchmarks can show learnt-DB size and GC activity.
     */
    sat::SolverStats aggregateSolverStats() const;

    /**
     * Re-arm a WARM session for a new request (serving tier): wait
     * for any straggler scheduler tasks, detach from the previous
     * request's CancelSource, attach to @p cancel and reset the
     * cancelled latch accordingly.  All session state that makes
     * reuse profitable - the arena and the condition cache -
     * survives.  Must be called between verifications, never while a
     * prepare()/finish() is outstanding.
     */
    void rearm(std::shared_ptr<CancelSource> cancel);

  private:
    friend class CancelSource;

    struct Conditions;
    struct Outcome;
    struct Query;

    /** Flip the stop flag of every live query and mark the session
     *  cancelled (called by CancelSource::requestCancel()). */
    void cancelNow();

    const Conditions &conditionsFor(ir::QubitId q);
    void noteDischarge(analysis::Pass pass);
    std::shared_ptr<Query> submitQuery(bexp::NodeRef condition);
    Outcome collectQuery(Query &query, QubitResult &out);
    Outcome structuralOutcome(bexp::NodeRef condition);
    Outcome decide(Query &query);
    void finishUnsafe(QubitResult &out, const Outcome &outcome,
                      FailedCondition which);
    static void abandon(const std::shared_ptr<Query> &query);
    void waitIdle();

    EngineOptions options_;
    ir::Circuit circuit_;
    bexp::Arena arena;
    bool classical = false;
    /** Final formula b_q per qubit (valid when classical). */
    std::vector<bexp::NodeRef> finals;
    std::shared_ptr<Scheduler> scheduler_;
    std::shared_ptr<CancelSource> cancel_;
    std::atomic<bool> cancelled_{false};
    /** options_.lane with the conflict budget folded into its solver
     *  configuration. */
    VerifierOptions lane_;
    /** Static dischargers over circuit_; created on first use. */
    std::unique_ptr<analysis::Analyzer> analyzer_;
    std::vector<std::unique_ptr<Conditions>> conditionCache;
    std::vector<std::optional<bexp::NodeRef>> cleanCache;
    Stats engineStats;

    /** Solver counters of every collected outcome so far.  Touched
     *  only from the session's own thread (collectQuery() and
     *  aggregateSolverStats()), never from pool workers. */
    sat::SolverStats solverTotals_;

    /** @name Destruction fence over in-flight scheduler tasks. @{ */
    std::mutex fenceMutex;
    std::condition_variable fenceIdle;
    std::size_t tasksInFlight = 0;      ///< guarded by fenceMutex
    std::vector<std::weak_ptr<Query>> liveQueries; ///< guarded by fenceMutex
    /** @} */
};

class VerificationEngine::Pending
{
  public:
    Pending(Pending &&) noexcept;
    Pending &operator=(Pending &&) noexcept;
    ~Pending();

  private:
    friend class VerificationEngine;
    Pending();

    QubitResult out;
    /** Conditions backing the queries (owned by the engine's cache). */
    const Conditions *conds = nullptr;
    std::shared_ptr<Query> zero; ///< (6.1) query, or the clean residue
    std::shared_ptr<Query> plus; ///< (6.2) query (speculative)
    bool immediate = false;     ///< verdict settled at prepare time
    bool clean = false;         ///< clean-ancilla single-condition check
};

/**
 * Batch-verify an elaborated program: every `borrow`-introduced qubit
 * over its borrow...release lifetime and (optionally) every `alloc`
 * qubit against the clean-ancilla criterion, exactly like
 * verifyProgram() but through engine sessions.
 *
 * Qubits whose lifetimes span the same gate range share one session -
 * one arena and one formula-building scan - as on programs like
 * adder.qbr whose dirty qubits are borrowed together.  All sessions
 * share ONE scheduler pool sized by @p options.jobs, and the whole
 * program is pipelined through it: every qubit's queries are queued
 * before the first result is awaited.
 * Results stream through @p observer (when set) in qubit order as they
 * are produced.
 */
ProgramResult verifyAll(const lang::ElaboratedProgram &program,
                        const EngineOptions &options = {},
                        const ResultObserver &observer = {},
                        bool check_clean_ancillas = false);

/**
 * verifyAll() over an externally-owned scheduler pool, optionally
 * cancellable: the serving entry point.  The qborrow daemon calls this
 * with the ONE process-wide pool it created at startup and a
 * per-request CancelSource, so pool startup is amortized across
 * requests, concurrent requests' queries interleave fairly (give each
 * request a distinct EngineOptions::fairnessBand), and a cancelled
 * request's remaining qubits settle as Verdict::Unknown without
 * blocking the pool.  @p scheduler must be non-null; @p cancel may be
 * null for uncancellable batch runs.
 */
ProgramResult verifyAll(const lang::ElaboratedProgram &program,
                        const EngineOptions &options,
                        const ResultObserver &observer,
                        bool check_clean_ancillas,
                        const std::shared_ptr<Scheduler> &scheduler,
                        const std::shared_ptr<CancelSource> &cancel);

/**
 * The warm sessions of one (program, engine options) pair, keyed by
 * circuit slice (scopeBegin, scopeEnd): what a verifyAll() run builds
 * and what a later run of the SAME program with the SAME options can
 * reuse instead of rebuilding arenas and conditions (the
 * serving tier's warm cache stores one SessionSet per cached program
 * per options key).  Sessions are stateful single-threaded objects:
 * a SessionSet must never be fed to two concurrent verifyAll() calls.
 */
struct SessionSet
{
    std::map<std::pair<std::size_t, std::size_t>,
             std::unique_ptr<VerificationEngine>>
        byScope;

    bool empty() const { return byScope.empty(); }
};

/**
 * verifyAll() with WARM session reuse: like the scheduler+cancel
 * overload, but sessions are taken from (and returned to) @p sessions.
 * Existing sessions are rearm()ed onto @p cancel; missing ones are
 * created and left in the set for the next run.  The caller guarantees
 * @p options matches the options the set's sessions were created with
 * (the serving tier keys its session storage by an options fingerprint
 * for exactly this reason).  Note ProgramResult::solverTotals is
 * CUMULATIVE over a session's lifetime, so warm runs report counters
 * that include earlier runs' work.
 */
ProgramResult verifyAll(const lang::ElaboratedProgram &program,
                        const EngineOptions &options,
                        const ResultObserver &observer,
                        bool check_clean_ancillas,
                        const std::shared_ptr<Scheduler> &scheduler,
                        const std::shared_ptr<CancelSource> &cancel,
                        SessionSet &sessions);

} // namespace qb::core

#endif // QB_CORE_ENGINE_H
