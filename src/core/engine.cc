#include "core/engine.h"

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "core/formula_builder.h"
#include "support/logging.h"
#include "support/timer.h"

namespace qb::core {

EngineOptions
EngineOptions::singleLane(const VerifierOptions &options)
{
    EngineOptions o;
    o.lane = options;
    return o;
}

namespace {

/** @p options with the per-call conflict budget folded into its
 *  solver configuration, which every solver of the session is built
 *  from. */
VerifierOptions
laneOptions(VerifierOptions options)
{
    options.solver.conflictBudget = options.conflictBudget;
    return options;
}

/** Satisfying input assignment (by qubit id) from a solver model. */
std::vector<bool>
extractModel(const std::unordered_map<std::uint32_t, sat::Var> &inputs,
             const sat::Solver &solver, std::uint32_t num_qubits)
{
    std::vector<bool> model(num_qubits, false);
    for (const auto &[input, solver_var] : inputs)
        model[input] =
            solver.modelValue(solver_var) == sat::LBool::True;
    return model;
}

} // namespace

void
CancelSource::requestCancel()
{
    flag.store(true, std::memory_order_release);
    // Holding the mutex across cancelNow() is what makes this safe
    // against concurrent engine destruction: ~VerificationEngine
    // detaches FIRST, and detach() blocks until this iteration is
    // over, so no engine here is mid-destruction.
    const std::lock_guard<std::mutex> guard(mutex);
    for (VerificationEngine *engine : engines)
        engine->cancelNow();
}

void
CancelSource::attach(VerificationEngine *engine)
{
    const std::lock_guard<std::mutex> guard(mutex);
    engines.push_back(engine);
}

void
CancelSource::detach(VerificationEngine *engine)
{
    const std::lock_guard<std::mutex> guard(mutex);
    std::erase(engines, engine);
}

/** Cached per-qubit verification conditions (6.1) and (6.2). */
struct VerificationEngine::Conditions
{
    bexp::NodeRef zero = bexp::kFalse;
    bexp::NodeRef plus = bexp::kFalse;
    std::size_t nodes = 0;
    /** @name Static analyzer verdicts (UNSAT-only; Pass::None means
     *  the condition must go to SAT).  Only ever set for NON-constant
     *  conditions - constants decide through structuralOutcome(),
     *  which must never be bypassed (it also settles Sat). @{ */
    analysis::Pass zeroDischargedBy = analysis::Pass::None;
    analysis::Pass plusDischargedBy = analysis::Pass::None;
    /** @} */
};

/** Result of deciding one condition in a solver (or structurally). */
struct VerificationEngine::Outcome
{
    sat::SolveResult result = sat::SolveResult::Unknown;
    std::optional<std::vector<bool>> model;
    double encodeSeconds = 0.0;
    double solveSeconds = 0.0;
    std::size_t vars = 0;
    std::size_t clauses = 0;
    /** Counters of the solver that decided the condition; folded
     *  into the session totals only when the outcome is collected. */
    sat::SolverStats stats;
};

/**
 * One condition submitted for solving: the (qubit, condition) work
 * item of the scheduler.  The worker fills outcome; the producing
 * thread blocks in collectQuery() only when it actually needs the
 * verdict.
 */
struct VerificationEngine::Query
{
    bexp::NodeRef condition = bexp::kFalse;
    /** Cancellation flag (abandoned handle or cancelled request);
     *  doubles as the solver stop flag. */
    std::atomic<bool> stop{false};
    std::mutex mutex;
    std::condition_variable done;
    Outcome outcome;       ///< written by the worker, then finished
    bool finished = false; ///< guarded by mutex
};

VerificationEngine::Pending::Pending() = default;
VerificationEngine::Pending::Pending(Pending &&) noexcept = default;
VerificationEngine::Pending &
VerificationEngine::Pending::operator=(Pending &&) noexcept = default;

VerificationEngine::Pending::~Pending()
{
    // An unredeemed handle cancels its queries; the engine's
    // destruction fence keeps the session alive until the cancelled
    // tasks drain.
    VerificationEngine::abandon(zero);
    VerificationEngine::abandon(plus);
}

VerificationEngine::VerificationEngine(
    const ir::Circuit &circuit, EngineOptions options,
    std::shared_ptr<Scheduler> scheduler,
    std::shared_ptr<CancelSource> cancel)
    : options_(std::move(options)), circuit_(circuit),
      scheduler_(std::move(scheduler)), cancel_(std::move(cancel)),
      lane_(laneOptions(options_.lane))
{
    if (!scheduler_) {
        // Auto-sizing (jobs == 0) caps the private pool at what this
        // session can actually keep busy, so the one-shot wrappers do
        // not spin up (and join) a machine-wide pool per single query.
        // An explicit jobs count is honored verbatim, and batch
        // drivers inject one full-width shared scheduler instead.
        unsigned jobs = options_.jobs;
        if (jobs == 0) {
            jobs = std::thread::hardware_concurrency();
            if (jobs == 0)
                jobs = 1;
            // A qubit's two conditions are solved side by side.
            jobs = std::min(jobs, 2u);
        }
        scheduler_ = std::make_shared<Scheduler>(jobs);
    }
    classical = circuit_.isClassical();
    const std::uint32_t n = circuit_.numQubits();
    conditionCache.resize(n);
    cleanCache.assign(n, std::nullopt);
    if (classical) {
        Timer build_timer;
        FormulaBuilder builder(arena, n);
        builder.applyCircuit(circuit_);
        finals.reserve(n);
        for (std::uint32_t q = 0; q < n; ++q)
            finals.push_back(builder.formula(q));
        engineStats.formulaBuildSeconds = build_timer.seconds();
    }
    if (cancel_) {
        cancel_->attach(this);
        // The source may have fired before this session existed:
        // start out cancelled rather than race the requestCancel()
        // iteration that may already have passed us by.
        if (cancel_->cancelRequested())
            cancelled_.store(true, std::memory_order_release);
    }
}

VerificationEngine::~VerificationEngine()
{
    // Detach FIRST: after this returns, no CancelSource iteration can
    // still hold a pointer to this engine.
    if (cancel_)
        cancel_->detach(this);
    {
        const std::lock_guard<std::mutex> guard(fenceMutex);
        for (const std::weak_ptr<Query> &weak : liveQueries)
            if (const std::shared_ptr<Query> query = weak.lock())
                query->stop.store(true, std::memory_order_release);
    }
    waitIdle();
}

void
VerificationEngine::cancelNow()
{
    cancelled_.store(true, std::memory_order_release);
    const std::lock_guard<std::mutex> guard(fenceMutex);
    for (const std::weak_ptr<Query> &weak : liveQueries)
        if (const std::shared_ptr<Query> query = weak.lock())
            query->stop.store(true, std::memory_order_release);
}

void
VerificationEngine::waitIdle()
{
    std::unique_lock<std::mutex> lock(fenceMutex);
    fenceIdle.wait(lock, [this] { return tasksInFlight == 0; });
}

void
VerificationEngine::rearm(std::shared_ptr<CancelSource> cancel)
{
    // Quiesce stragglers of the previous request first: a task still
    // in flight could observe the cancelled latch mid-flip.
    waitIdle();
    if (cancel_)
        cancel_->detach(this);
    cancel_ = std::move(cancel);
    cancelled_.store(false, std::memory_order_release);
    if (cancel_) {
        cancel_->attach(this);
        // Mirror the constructor: the new source may already have
        // fired, and its requestCancel() sweep cannot have seen us.
        if (cancel_->cancelRequested())
            cancelled_.store(true, std::memory_order_release);
    }
}

sat::SolverStats
VerificationEngine::aggregateSolverStats() const
{
    return solverTotals_;
}

/** Static-discharge counters of @p stats as report-ready totals. */
static AnalysisTotals
analysisTotalsOf(const VerificationEngine::Stats &stats)
{
    AnalysisTotals totals;
    totals.discharged =
        static_cast<std::int64_t>(stats.analysisDischarged);
    totals.support = static_cast<std::int64_t>(stats.analysisSupport);
    totals.mirror = static_cast<std::int64_t>(stats.analysisMirror);
    totals.affine = static_cast<std::int64_t>(stats.analysisAffine);
    totals.permutation =
        static_cast<std::int64_t>(stats.analysisPermutation);
    return totals;
}

const VerificationEngine::Conditions &
VerificationEngine::conditionsFor(ir::QubitId q)
{
    if (conditionCache[q]) {
        ++engineStats.conditionHits;
        return *conditionCache[q];
    }
    auto conds = std::make_unique<Conditions>();
    const std::uint32_t n = circuit_.numQubits();

    // GF(2)-affine pre-build consult (window-free): for a purely
    // linear cone the arena's own XOR canonicalization would fold
    // both conditions to constants during construction, so a
    // POST-build affine discharge can never fire - the pass pays off
    // only by proving UNSAT first and skipping the build, notably the
    // O(wires * dagSize) cofactor sweep of (6.2).  Gated on q being
    // written: unwritten qubits fold in O(1) anyway, and skipping
    // them keeps their results attributed as structural.
    analysis::AffineFacts affine;
    if (options_.analysis.affine && classical &&
        analysis::writesWire(circuit_, q)) {
        if (!analyzer_)
            analyzer_ = std::make_unique<analysis::Analyzer>(
                circuit_, options_.analysis);
        affine = analyzer_->affineFacts(q);
    }

    // Formula (6.1): b_q AND NOT q - satisfiable iff some input with
    // q = 0 ends with q = 1, i.e. |0> is not restored.
    if (affine.zeroUnsat) {
        conds->zero = bexp::kFalse;
        conds->zeroDischargedBy = analysis::Pass::Affine;
    } else {
        const bexp::NodeRef b_q = finals[q];
        conds->zero =
            arena.mkAnd({b_q, arena.mkNot(arena.mkVar(q))});
    }

    // Formula (6.2): OR over the other qubits of the XOR of the two
    // cofactors - satisfiable iff some other output depends on q,
    // i.e. |+> is not restored.
    if (affine.plusUnsat) {
        conds->plus = bexp::kFalse;
        conds->plusDischargedBy = analysis::Pass::Affine;
    } else {
        // One memo per cofactor value, shared by every wire: the wires'
        // cones overlap almost entirely, so the sweep costs the size of
        // their union rather than wires x cone.  The arena is
        // hash-consed, so the NodeRefs are those of per-wire calls.
        std::unordered_map<bexp::NodeRef, bexp::NodeRef> memo0, memo1;
        std::vector<bexp::NodeRef> disjuncts;
        for (std::uint32_t other = 0; other < n; ++other) {
            if (other == q)
                continue;
            const bexp::NodeRef b_other = finals[other];
            const bexp::NodeRef cof0 =
                arena.substitute(b_other, q, bexp::kFalse, memo0);
            const bexp::NodeRef cof1 =
                arena.substitute(b_other, q, bexp::kTrue, memo1);
            const bexp::NodeRef diff = arena.mkXor({cof0, cof1});
            if (diff != bexp::kFalse)
                disjuncts.push_back(diff);
        }
        conds->plus = arena.mkOr(std::move(disjuncts));
    }
    conds->nodes =
        arena.dagSize(conds->zero) + arena.dagSize(conds->plus);

    // Static dischargers: whatever the analyzer proves UNSAT from
    // circuit structure skips its SAT query in prepare().  Constant
    // conditions are left to structuralOutcome() - it is both cheaper
    // and the only path that may also settle Sat.
    if (options_.analysis.anyPass() &&
        (!arena.isConst(conds->zero) || !arena.isConst(conds->plus))) {
        if (!analyzer_)
            analyzer_ = std::make_unique<analysis::Analyzer>(
                circuit_, options_.analysis);
        const analysis::QubitFacts &facts = analyzer_->qubitFacts(q);
        if (!arena.isConst(conds->zero))
            conds->zeroDischargedBy = facts.zeroDischargedBy;
        if (!arena.isConst(conds->plus))
            conds->plusDischargedBy = facts.plusDischargedBy;
    }
    conditionCache[q] = std::move(conds);
    return *conditionCache[q];
}

void
VerificationEngine::noteDischarge(analysis::Pass pass)
{
    ++engineStats.analysisDischarged;
    switch (pass) {
      case analysis::Pass::Support:
        ++engineStats.analysisSupport;
        break;
      case analysis::Pass::Mirror:
        ++engineStats.analysisMirror;
        break;
      case analysis::Pass::Affine:
        ++engineStats.analysisAffine;
        break;
      case analysis::Pass::Permutation:
        ++engineStats.analysisPermutation;
        break;
      case analysis::Pass::None:
        qbAssert(false, "noteDischarge: no pass");
        break;
    }
}

void
VerificationEngine::abandon(const std::shared_ptr<Query> &query)
{
    if (query)
        query->stop.store(true, std::memory_order_release);
}

std::shared_ptr<VerificationEngine::Query>
VerificationEngine::submitQuery(bexp::NodeRef condition)
{
    auto query = std::make_shared<Query>();
    query->condition = condition;
    ++engineStats.satCalls;
    {
        const std::lock_guard<std::mutex> guard(fenceMutex);
        // A cancel that fired while this qubit's conditions were
        // being built has already swept liveQueries; seed the new
        // query's stop flag here, under the same mutex, so it cannot
        // slip through the sweep and run to completion.
        if (cancelled_.load(std::memory_order_acquire))
            query->stop.store(true, std::memory_order_release);
        if (liveQueries.size() >= 64) {
            std::erase_if(liveQueries,
                          [](const std::weak_ptr<Query> &weak) {
                              return weak.expired();
                          });
        }
        liveQueries.push_back(query);
        ++tasksInFlight;
    }
    auto task = [this, query] {
        Outcome outcome = decide(*query);
        {
            const std::lock_guard<std::mutex> guard(query->mutex);
            query->outcome = std::move(outcome);
            query->finished = true;
        }
        query->done.notify_all();
        // Notify UNDER the mutex: waitIdle()'s waiter may destroy the
        // engine (and this condition variable) the instant the count
        // hits zero, so the notify must complete before the lock is
        // released.
        const std::lock_guard<std::mutex> guard(fenceMutex);
        --tasksInFlight;
        fenceIdle.notify_all();
    };
    scheduler_->submit(options_.fairnessBand, std::move(task));
    return query;
}

VerificationEngine::Outcome
VerificationEngine::decide(Query &query)
{
    // Every condition is decided in a dedicated solver: the presets'
    // whole-database preprocessing (bounded variable elimination)
    // applies, and independent conditions run on any free worker.
    Outcome out;
    if (query.stop.load(std::memory_order_acquire))
        return out; // abandoned before it ran: encode nothing
    Timer encode_timer;
    sat::TseitinResult enc = sat::encodeAssertTrue(
        arena, query.condition, lane_.encoding, lane_.xorChunk);
    out.encodeSeconds = encode_timer.seconds();
    qbAssert(!enc.rootIsConst, "constant conditions decide upstream");
    out.vars = static_cast<std::size_t>(enc.cnf.numVars());
    out.clauses = enc.cnf.numClauses();
    sat::Solver solver(lane_.solver);
    solver.addCnf(enc.cnf);
    solver.setStopFlag(&query.stop);
    Timer solve_timer;
    out.result = solver.solve();
    out.solveSeconds = solve_timer.seconds();
#ifdef QB_DEBUG_CHECKS
    solver.checkInvariants();
#endif
    // The solver is deterministic and sees nothing but the condition's
    // CNF; the stop flag can only turn an answer into Unknown.  So a
    // Sat model depends on the condition alone, and counterexamples
    // are identical across --jobs counts and schedules.
    if (out.result == sat::SolveResult::Sat && lane_.wantCounterexample)
        out.model =
            extractModel(enc.inputVar, solver, circuit_.numQubits());
    out.stats = solver.stats();
    return out;
}

VerificationEngine::Outcome
VerificationEngine::collectQuery(Query &query, QubitResult &out)
{
    {
        std::unique_lock<std::mutex> lock(query.mutex);
        query.done.wait(lock, [&query] { return query.finished; });
    }
    // The worker has reported; the outcome is immutable from here on.
    // Its work is charged to the result even when the query was
    // cancelled or ran out of budget.  Only collected queries reach
    // the session's solver totals: a speculative (6.2) query abandoned
    // after an Unsafe (6.1) is never counted, however far it ran, so
    // the totals do not depend on the schedule.
    const Outcome &o = query.outcome;
    out.encodeSeconds += o.encodeSeconds;
    out.solveSeconds += o.solveSeconds;
    out.conflicts += o.stats.conflicts;
    out.cnfVars += o.vars;
    out.cnfClauses += o.clauses;
    out.lane = 0;
    solverTotals_.accumulate(o.stats);
    return std::move(query.outcome);
}

VerificationEngine::Outcome
VerificationEngine::structuralOutcome(bexp::NodeRef condition)
{
    // Construction-time simplification discharged the condition
    // outright (the paper's Figure 6.1 observation).
    ++engineStats.structural;
    Outcome outcome;
    outcome.result = arena.constValue(condition)
        ? sat::SolveResult::Sat
        : sat::SolveResult::Unsat;
    if (outcome.result == sat::SolveResult::Sat &&
        lane_.wantCounterexample)
        outcome.model =
            std::vector<bool>(circuit_.numQubits(), false);
    return outcome;
}

void
VerificationEngine::finishUnsafe(QubitResult &out,
                                 const Outcome &outcome,
                                 FailedCondition which)
{
    out.verdict = Verdict::Unsafe;
    out.failed = which;
    out.counterexample = outcome.model;
}

VerificationEngine::Pending
VerificationEngine::prepare(ir::QubitId q)
{
    Pending p;
    p.out.qubit = q;
    p.out.name = circuit_.label(q);
    qbAssert(q < circuit_.numQubits(), "verify: qubit out of range");
    if (!classical) {
        p.out.verdict = Verdict::NotClassical;
        p.immediate = true;
        return p;
    }
    if (cancelled_.load(std::memory_order_acquire)) {
        // The request this session serves was cancelled: settle
        // immediately, build nothing, queue nothing.
        p.out.verdict = Verdict::Unknown;
        p.immediate = true;
        return p;
    }
    ++engineStats.qubitsVerified;

    Timer build_timer;
    const Conditions &conds = conditionsFor(q);
    p.out.buildSeconds = build_timer.seconds();
    p.out.formulaNodes = conds.nodes;
    // "Structural" means the arena's constant folding alone settled
    // both formulas; a condition the affine pass pre-discharged (its
    // stored formula is a kFalse placeholder, never built) counts as
    // an analysis discharge instead.
    p.out.solvedStructurally =
        conds.zeroDischargedBy == analysis::Pass::None &&
        conds.plusDischargedBy == analysis::Pass::None &&
        arena.isConst(conds.zero) && arena.isConst(conds.plus);
    p.conds = &conds;

    if (conds.zeroDischargedBy != analysis::Pass::None) {
        // Statically proven UNSAT: no query.  finish() treats a null
        // zero handle as a settled Unsat, exactly as for a constant.
        // Checked BEFORE the constant test so affine placeholders
        // route here, not through structuralOutcome().
        noteDischarge(conds.zeroDischargedBy);
    } else if (arena.isConst(conds.zero)) {
        const Outcome zero = structuralOutcome(conds.zero);
        if (zero.result == sat::SolveResult::Sat) {
            // Matches the sequential order: (6.2) is never evaluated
            // once (6.1) already proved the qubit unsafe.
            finishUnsafe(p.out, zero, FailedCondition::ZeroRestoration);
            p.immediate = true;
            return p;
        }
    } else {
        p.zero = submitQuery(conds.zero);
    }
    // Queue (6.2) speculatively: safe qubits (the common case) need it
    // anyway, and an Unsafe (6.1) answer cancels the query.
    if (conds.plusDischargedBy != analysis::Pass::None)
        noteDischarge(conds.plusDischargedBy);
    else if (!arena.isConst(conds.plus))
        p.plus = submitQuery(conds.plus);
    return p;
}

VerificationEngine::Pending
VerificationEngine::prepareCleanAncilla(ir::QubitId q)
{
    Pending p;
    p.clean = true;
    p.out.qubit = q;
    p.out.name = circuit_.label(q);
    qbAssert(q < circuit_.numQubits(),
             "verifyCleanAncilla: qubit out of range");
    if (!classical) {
        p.out.verdict = Verdict::NotClassical;
        p.immediate = true;
        return p;
    }
    if (cancelled_.load(std::memory_order_acquire)) {
        p.out.verdict = Verdict::Unknown;
        p.immediate = true;
        return p;
    }
    ++engineStats.qubitsVerified;

    Timer build_timer;
    // The ancilla starts in |0>, so only the q = 0 cofactor of its
    // final value matters: it must be identically 0.
    bexp::NodeRef residue;
    if (cleanCache[q]) {
        ++engineStats.conditionHits;
        residue = *cleanCache[q];
    } else {
        residue = arena.substitute(finals[q], q, bexp::kFalse);
        cleanCache[q] = residue;
    }
    p.out.buildSeconds = build_timer.seconds();
    p.out.formulaNodes = arena.dagSize(residue);
    p.out.solvedStructurally = arena.isConst(residue);

    if (arena.isConst(residue)) {
        const Outcome res = structuralOutcome(residue);
        if (res.result == sat::SolveResult::Sat)
            finishUnsafe(p.out, res, FailedCondition::ZeroRestoration);
        else
            p.out.verdict = Verdict::Safe;
        p.immediate = true;
    } else {
        p.zero = submitQuery(residue);
    }
    return p;
}

QubitResult
VerificationEngine::finish(Pending p)
{
    if (p.immediate)
        return std::move(p.out);

    if (p.clean) {
        const Outcome res = collectQuery(*p.zero, p.out);
        p.zero.reset();
        switch (res.result) {
          case sat::SolveResult::Unsat:
            p.out.verdict = Verdict::Safe;
            break;
          case sat::SolveResult::Sat:
            finishUnsafe(p.out, res, FailedCondition::ZeroRestoration);
            break;
          case sat::SolveResult::Unknown:
            p.out.verdict = Verdict::Unknown;
            break;
        }
        return std::move(p.out);
    }

    if (p.zero) {
        const Outcome zero = collectQuery(*p.zero, p.out);
        p.zero.reset();
        if (zero.result == sat::SolveResult::Sat) {
            finishUnsafe(p.out, zero, FailedCondition::ZeroRestoration);
            return std::move(p.out); // ~Pending cancels the (6.2) query
        }
        if (zero.result == sat::SolveResult::Unknown) {
            p.out.verdict = Verdict::Unknown;
            return std::move(p.out);
        }
    }

    Outcome plus;
    if (p.plus) {
        plus = collectQuery(*p.plus, p.out);
        p.plus.reset();
    } else if (p.conds->plusDischargedBy != analysis::Pass::None) {
        // Statically discharged in prepare(): settled Unsat with no
        // lane attribution.  (structuralOutcome() would read a
        // constant value this non-constant condition does not have.)
        plus.result = sat::SolveResult::Unsat;
    } else {
        plus = structuralOutcome(p.conds->plus);
    }
    if (plus.result == sat::SolveResult::Sat) {
        finishUnsafe(p.out, plus, FailedCondition::PlusRestoration);
        return std::move(p.out);
    }
    if (plus.result == sat::SolveResult::Unknown) {
        p.out.verdict = Verdict::Unknown;
        return std::move(p.out);
    }
    p.out.verdict = Verdict::Safe;
    return std::move(p.out);
}

QubitResult
VerificationEngine::verify(ir::QubitId q)
{
    return finish(prepare(q));
}

QubitResult
VerificationEngine::verifyCleanAncilla(ir::QubitId q)
{
    return finish(prepareCleanAncilla(q));
}

ProgramResult
VerificationEngine::verifyAllQubits(const ResultObserver &observer)
{
    ProgramResult result;
    Timer timer;
    const AnalysisTotals analysisBefore = analysisTotalsOf(engineStats);
    // Pipeline the whole circuit: queue every qubit's queries before
    // awaiting the first verdict, so the worker pool crosses qubit
    // boundaries without draining.
    std::vector<Pending> pendings;
    pendings.reserve(circuit_.numQubits());
    for (ir::QubitId q = 0; q < circuit_.numQubits(); ++q)
        pendings.push_back(prepare(q));
    for (Pending &pending : pendings) {
        result.qubits.push_back(finish(std::move(pending)));
        if (observer)
            observer(result.qubits.back());
    }
    result.solverTotals = aggregateSolverStats();
    result.analysisTotals = analysisTotalsOf(engineStats);
    result.analysisTotals.subtract(analysisBefore);
    result.totalSeconds = timer.seconds();
    return result;
}

ProgramResult
verifyAll(const lang::ElaboratedProgram &program,
          const EngineOptions &options, const ResultObserver &observer,
          bool check_clean_ancillas)
{
    // ONE worker pool for the whole program, shared by every session:
    // the process runs at most options.jobs solver threads no matter
    // how many lifetimes the program has.  (The server entry point
    // below amortizes even this across requests by passing its own
    // long-lived pool.)
    return verifyAll(program, options, observer, check_clean_ancillas,
                     std::make_shared<Scheduler>(options.jobs),
                     nullptr);
}

ProgramResult
verifyAll(const lang::ElaboratedProgram &program,
          const EngineOptions &options, const ResultObserver &observer,
          bool check_clean_ancillas,
          const std::shared_ptr<Scheduler> &scheduler,
          const std::shared_ptr<CancelSource> &cancel)
{
    // Sessions are built, used and dropped within this one run.
    SessionSet sessions;
    return verifyAll(program, options, observer, check_clean_ancillas,
                     scheduler, cancel, sessions);
}

ProgramResult
verifyAll(const lang::ElaboratedProgram &program,
          const EngineOptions &options, const ResultObserver &observer,
          bool check_clean_ancillas,
          const std::shared_ptr<Scheduler> &scheduler,
          const std::shared_ptr<CancelSource> &cancel,
          SessionSet &sessions)
{
    qbAssert(scheduler != nullptr, "verifyAll: null scheduler");
    ProgramResult result;
    Timer timer;

    // Warm sessions carry cumulative analysis counters from earlier
    // runs; snapshot them so this run reports only its own discharges
    // (ProgramResult::analysisTotals is per-run).
    std::map<std::pair<std::size_t, std::size_t>, AnalysisTotals>
        analysisBaseline;
    for (const auto &[key, session] : sessions.byScope)
        analysisBaseline.emplace(key,
                                 analysisTotalsOf(session->stats()));

    // One session per distinct borrow...release lifetime: qubits whose
    // scopes coincide (e.g. adder.qbr's a[1..n-1], all borrowed and
    // released together) share one arena and one formula scan.
    // Sessions already in @p sessions are WARM - built by an earlier
    // run of the same program with the same options (the serving
    // tier's warm cache) - and only need re-arming onto this run's
    // CancelSource; their arenas and built conditions carry over.
    std::set<std::pair<std::size_t, std::size_t>> rearmed;
    const auto sessionFor =
        [&](const lang::QubitInfo &info) -> VerificationEngine & {
        const auto key = std::make_pair(info.scopeBegin, info.scopeEnd);
        auto it = sessions.byScope.find(key);
        if (it == sessions.byScope.end()) {
            it = sessions.byScope
                     .emplace(key,
                              std::make_unique<VerificationEngine>(
                                  program.circuit.slice(info.scopeBegin,
                                                        info.scopeEnd),
                                  options, scheduler, cancel))
                     .first;
            rearmed.insert(key);
        } else if (rearmed.insert(key).second) {
            it->second->rearm(cancel);
        }
        return *it->second;
    };

    // Pass 1 - pipeline: build and queue every qubit's queries, in
    // emission order, without waiting on any verdict.
    struct WorkItem
    {
        VerificationEngine *engine;
        VerificationEngine::Pending pending;
    };
    std::vector<WorkItem> work;
    for (ir::QubitId q :
         program.qubitsWithRole(lang::QubitRole::BorrowVerify)) {
        // Definition 5.1: verify over the statements inside the
        // qubit's borrow ... release lifetime.
        VerificationEngine &session = sessionFor(program.qubits[q]);
        work.push_back({&session, session.prepare(q)});
    }
    if (check_clean_ancillas) {
        for (ir::QubitId q :
             program.qubitsWithRole(lang::QubitRole::Alloc)) {
            VerificationEngine &session = sessionFor(program.qubits[q]);
            work.push_back({&session, session.prepareCleanAncilla(q)});
        }
    }

    // Pass 2 - collect and stream, preserving qubit order.
    for (WorkItem &item : work) {
        result.qubits.push_back(
            item.engine->finish(std::move(item.pending)));
        if (observer)
            observer(result.qubits.back());
    }
    for (auto &[key, session] : sessions.byScope) {
        result.solverTotals.accumulate(session->aggregateSolverStats());
        AnalysisTotals delta = analysisTotalsOf(session->stats());
        const auto baseline = analysisBaseline.find(key);
        if (baseline != analysisBaseline.end())
            delta.subtract(baseline->second);
        result.analysisTotals.accumulate(delta);
    }
    result.totalSeconds = timer.seconds();
    return result;
}

} // namespace qb::core
