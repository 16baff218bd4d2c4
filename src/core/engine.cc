#include "core/engine.h"

#include <algorithm>
#include <map>
#include <thread>
#include <utility>

#include "core/formula_builder.h"
#include "sat/sweep.h"
#include "sat/tseitin.h"
#include "support/logging.h"
#include "support/timer.h"

namespace qb::core {

namespace {

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

/** One verification condition, as built by prepare(). */
struct VerificationEngine::Condition
{
    bexp::NodeRef formula = bexp::kFalse;
    /** Static analyzer verdict (UNSAT-only; Pass::None means the
     *  condition must go to SAT).  Set for non-constant conditions
     *  and for the kFalse placeholder of an affine pre-build
     *  discharge; other constants decide through structuralOutcome(),
     *  which must never be bypassed (it also settles Sat). */
    analysis::Pass dischargedBy = analysis::Pass::None;
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
      scheduler_(std::move(scheduler)), cancel_(std::move(cancel))
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
    if (classical) {
        FormulaBuilder builder(arena, n);
        builder.applyCircuit(circuit_);
        finals.reserve(n);
        for (std::uint32_t q = 0; q < n; ++q)
            finals.push_back(builder.formula(q));
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
    // Simulate -> sweep -> direct solve.  The sweeper settles the
    // conditions whose root it can fold to constant false; every
    // other condition is Tseitin-encoded into a dedicated solver, so
    // the solver's whole-database preprocessing (bounded variable
    // elimination) applies and independent conditions run on any
    // free worker.  Both share one conflict budget.
    Outcome out;
    if (query.stop.load(std::memory_order_acquire))
        return out; // abandoned before it ran: encode nothing
    const sat::SolverConfig &config = options_.lane.solver;
    Timer sweep_timer;
    const sat::SweepResult swept = sat::sweep(
        arena, query.condition, config.conflictBudget, &query.stop);
    out.solveSeconds = sweep_timer.seconds();
    out.vars = swept.vars;
    out.clauses = swept.clauses;
    out.stats = swept.stats;
    if (swept.result == sat::SolveResult::Unsat) {
        out.result = sat::SolveResult::Unsat;
        return out;
    }
    if (query.stop.load(std::memory_order_acquire))
        return out; // cancelled during the sweep
    sat::SolverConfig direct = config;
    if (config.conflictBudget >= 0) {
        direct.conflictBudget =
            config.conflictBudget - swept.stats.conflicts;
        if (direct.conflictBudget <= 0)
            return out; // the sweep spent the whole budget: Unknown
    }
    Timer encode_timer;
    sat::TseitinResult enc = sat::encodeAssertTrue(arena, query.condition);
    out.encodeSeconds = encode_timer.seconds();
    qbAssert(!enc.rootIsConst, "constant conditions decide upstream");
    out.vars += static_cast<std::size_t>(enc.cnf.numVars());
    out.clauses += enc.cnf.numClauses();
    sat::Solver solver(direct);
    solver.addCnf(enc.cnf);
    solver.setStopFlag(&query.stop);
    Timer solve_timer;
    out.result = solver.solve();
    out.solveSeconds += solve_timer.seconds();
#ifdef QB_DEBUG_CHECKS
    solver.checkInvariants();
#endif
    // The direct solver is deterministic and sees nothing but the
    // condition's CNF; the stop flag and the budget can only turn an
    // answer into Unknown.  So a Sat model depends on the condition
    // alone, and counterexamples are identical across --jobs counts
    // and schedules.  The sweeper never answers Sat, so every model
    // comes from here.
    if (out.result == sat::SolveResult::Sat &&
        options_.lane.wantCounterexample)
        out.model =
            extractModel(enc.inputVar, solver, circuit_.numQubits());
    out.stats.accumulate(solver.stats());
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
        options_.lane.wantCounterexample)
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
VerificationEngine::begin(ir::QubitId q)
{
    qbAssert(q < circuit_.numQubits(), "verify: qubit out of range");
    Pending p;
    p.out.qubit = q;
    p.out.name = circuit_.label(q);
    if (!classical) {
        p.out.verdict = Verdict::NotClassical;
        p.immediate = true;
    } else if (cancelled_.load(std::memory_order_acquire)) {
        // The request this session serves was cancelled: settle
        // immediately, build nothing, queue nothing.
        p.out.verdict = Verdict::Unknown;
        p.immediate = true;
    } else {
        ++engineStats.qubitsVerified;
    }
    return p;
}

void
VerificationEngine::submit(Pending &p, const Condition &zero,
                           const std::optional<Condition> &plus)
{
    // "Structural" means the arena's constant folding alone settled
    // every condition; a condition the affine pass pre-discharged
    // (its formula is a kFalse placeholder, never built) counts as an
    // analysis discharge instead.
    const auto folded = [this](const Condition &c) {
        return c.dischargedBy == analysis::Pass::None &&
               arena.isConst(c.formula);
    };
    p.out.solvedStructurally = folded(zero) && (!plus || folded(*plus));

    if (zero.dischargedBy != analysis::Pass::None) {
        // Statically proven UNSAT: no query.  finish() treats a null
        // zero handle as a settled Unsat, exactly as for a constant.
        // Checked BEFORE the constant test so affine placeholders
        // route here, not through structuralOutcome().
        noteDischarge(zero.dischargedBy);
    } else if (arena.isConst(zero.formula)) {
        const Outcome outcome = structuralOutcome(zero.formula);
        if (outcome.result == sat::SolveResult::Sat) {
            // Matches the sequential order: (6.2) is never evaluated
            // once (6.1) already proved the qubit unsafe.
            finishUnsafe(p.out, outcome,
                         FailedCondition::ZeroRestoration);
            p.immediate = true;
            return;
        }
    } else {
        p.zero = submitQuery(zero.formula);
    }
    if (!plus)
        return;
    // Queue (6.2) speculatively: safe qubits (the common case) need it
    // anyway, and an Unsafe (6.1) answer cancels the query.
    if (plus->dischargedBy != analysis::Pass::None)
        noteDischarge(plus->dischargedBy);
    else if (arena.isConst(plus->formula))
        p.plusConstant = plus->formula;
    else
        p.plus = submitQuery(plus->formula);
}

VerificationEngine::Pending
VerificationEngine::prepare(ir::QubitId q)
{
    Pending p = begin(q);
    if (p.immediate)
        return p;
    Timer build_timer;
    Condition zero, plus;
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
    if (options_.analysis.affine && analysis::writesWire(circuit_, q)) {
        if (!analyzer_)
            analyzer_ = std::make_unique<analysis::Analyzer>(
                circuit_, options_.analysis);
        affine = analyzer_->affineFacts(q);
    }

    // Formula (6.1): b_q AND NOT q - satisfiable iff some input with
    // q = 0 ends with q = 1, i.e. |0> is not restored.
    if (affine.zeroUnsat)
        zero.dischargedBy = analysis::Pass::Affine;
    else
        zero.formula =
            arena.mkAnd({finals[q], arena.mkNot(arena.mkVar(q))});

    // Formula (6.2): OR over the other qubits of the XOR of the two
    // cofactors - satisfiable iff some other output depends on q,
    // i.e. |+> is not restored.
    if (affine.plusUnsat) {
        plus.dischargedBy = analysis::Pass::Affine;
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
        plus.formula = arena.mkOr(std::move(disjuncts));
    }
    p.out.formulaNodes =
        arena.dagSize(zero.formula) + arena.dagSize(plus.formula);

    // Static dischargers: whatever the analyzer proves UNSAT from
    // circuit structure skips its SAT query.  Constant conditions are
    // left to structuralOutcome() - it is both cheaper and the only
    // path that may also settle Sat.
    if (options_.analysis.anyPass() &&
        (!arena.isConst(zero.formula) || !arena.isConst(plus.formula))) {
        if (!analyzer_)
            analyzer_ = std::make_unique<analysis::Analyzer>(
                circuit_, options_.analysis);
        const analysis::QubitFacts &facts = analyzer_->qubitFacts(q);
        if (!arena.isConst(zero.formula))
            zero.dischargedBy = facts.zeroDischargedBy;
        if (!arena.isConst(plus.formula))
            plus.dischargedBy = facts.plusDischargedBy;
    }
    p.out.buildSeconds = build_timer.seconds();
    submit(p, zero, plus);
    return p;
}

VerificationEngine::Pending
VerificationEngine::prepareCleanAncilla(ir::QubitId q)
{
    Pending p = begin(q);
    if (p.immediate)
        return p;
    Timer build_timer;
    // The ancilla starts in |0>, so only the q = 0 cofactor of its
    // final value matters: it must be identically 0.
    Condition residue;
    residue.formula = arena.substitute(finals[q], q, bexp::kFalse);
    p.out.formulaNodes = arena.dagSize(residue.formula);
    p.out.buildSeconds = build_timer.seconds();
    submit(p, residue, std::nullopt);
    return p;
}

QubitResult
VerificationEngine::finish(Pending p)
{
    if (p.immediate)
        return std::move(p.out);

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

    // With no (6.2) query and no constant to read, (6.2) was
    // statically discharged or is not part of the check: Unsat.
    Outcome plus;
    plus.result = sat::SolveResult::Unsat;
    if (p.plus) {
        plus = collectQuery(*p.plus, p.out);
        p.plus.reset();
    } else if (p.plusConstant) {
        plus = structuralOutcome(*p.plusConstant);
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
verifyAll(const lang::ElaboratedProgram &program,
          const EngineOptions &options, const ResultObserver &observer,
          bool check_clean_ancillas, std::shared_ptr<Scheduler> scheduler,
          const std::shared_ptr<CancelSource> &cancel)
{
    // ONE worker pool for the whole program, shared by every session:
    // the process runs at most options.jobs solver threads no matter
    // how many lifetimes the program has.
    if (!scheduler)
        scheduler = std::make_shared<Scheduler>(options.jobs);
    ProgramResult result;
    Timer timer;

    // One session per distinct borrow...release lifetime: qubits whose
    // scopes coincide (e.g. adder.qbr's a[1..n-1], all borrowed and
    // released together) share one arena and one formula scan.  The
    // sessions live for this run only; destroying them at return
    // waits for any abandoned speculative (6.2) task.
    std::map<std::pair<std::size_t, std::size_t>,
             std::unique_ptr<VerificationEngine>>
        sessions;
    const auto sessionFor =
        [&](const lang::QubitInfo &info) -> VerificationEngine & {
        std::unique_ptr<VerificationEngine> &session =
            sessions[{info.scopeBegin, info.scopeEnd}];
        if (!session)
            session = std::make_unique<VerificationEngine>(
                program.circuit.slice(info.scopeBegin, info.scopeEnd),
                options, scheduler, cancel);
        return *session;
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
    for (const auto &[scope, session] : sessions) {
        result.solverTotals.accumulate(session->aggregateSolverStats());
        result.analysisTotals.accumulate(
            analysisTotalsOf(session->stats()));
    }
    result.totalSeconds = timer.seconds();
    return result;
}

} // namespace qb::core
