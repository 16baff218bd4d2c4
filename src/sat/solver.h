/**
 * @file
 * Conflict-driven clause-learning (CDCL) SAT solver.
 *
 * This is the in-tree replacement for the off-the-shelf solvers (CVC5,
 * Bitwuzla) the paper discharges its verification conditions to.  The
 * design follows MiniSat: two-watched-literal propagation, first-UIP
 * conflict analysis with recursive clause minimization, EVSIDS variable
 * activities, phase saving, Luby restarts and activity/LBD-based learnt
 * clause database reduction.
 *
 * Clause storage is an arena ClauseAllocator (clause_allocator.h):
 * clauses of size >= 3 live in one contiguous word array addressed by
 * 32-bit ClauseRefs, watcher lists carry {ClauseRef, blocker literal}
 * pairs so the common propagation step never touches the clause
 * itself, and a relocating garbage collector compacts the arena when
 * database reductions have left enough garbage behind.  BINARY
 * clauses never enter the arena at all: they exist only as mirrored
 * entries in the specialized binary watch lists, with the implied
 * literal inlined in the watcher (dawn/kissat-style), and a binary
 * implication carries the OTHER literal in the variable's Reason word
 * instead of a clause reference.  Propagation visits the binary lists
 * first and decides every binary - implication, conflict or no-op -
 * without a single arena read (SolverStats::propagationArenaReads
 * proves it), then falls through to the long clauses under the
 * blocker scheme.
 * Two clause improvements run on top of the search: bounded variable
 * elimination at solve entry (SolverConfig::preprocess) and
 * ON-THE-FLY self-subsumption during conflict analysis: when the
 * freshly learnt clause self-subsumes one of its antecedents, the
 * antecedent is strengthened in place at learn time.
 *
 * Two configuration presets (see SolverConfig::baseline() and
 * SolverConfig::simplify()) stand in for the two external solvers in the
 * paper's evaluation; they differ in preprocessing, branching and restart
 * strategy, and like the paper's pair they trade places across benchmark
 * families.
 */

#ifndef QB_SAT_SOLVER_H
#define QB_SAT_SOLVER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "sat/clause_allocator.h"
#include "sat/clause_list.h"
#include "sat/cnf.h"
#include "sat/literal.h"

namespace qb::sat {

/** Outcome of a solve() call. */
enum class SolveResult { Sat, Unsat, Unknown };

/**
 * Why a variable is assigned: nothing (decision / root unit), a long
 * clause in the arena, or - kissat-style - the OTHER literal of a
 * binary clause, inlined so a binary implication never needs an arena
 * clause at all.  One tagged 32-bit word: the top bit distinguishes
 * "binary, low bits are the other literal's index" from "arena
 * ClauseRef".  kRefUndef has the tag bit set, so isClause() is false
 * for the undef state without a separate check.
 */
class Reason
{
  public:
    Reason() = default;

    static Reason clause(ClauseRef cr)
    {
        // Arena refs must stay below the tag bit (an 8 GiB arena);
        // kRefUndef is the one tagged value allowed through.
        qbAssert(cr == kRefUndef || (cr & kBinTag) == 0,
                 "arena ref collides with the binary reason tag");
        Reason r;
        r.word = cr;
        return r;
    }
    /** Reason "binary clause (implied ∨ other)": store @p other. */
    static Reason binary(Lit other)
    {
        Reason r;
        r.word = kBinTag | static_cast<std::uint32_t>(other.index());
        return r;
    }

    bool isUndef() const { return word == kRefUndef; }
    bool isBinary() const
    {
        return word != kRefUndef && (word & kBinTag) != 0;
    }
    bool isClause() const { return (word & kBinTag) == 0; }

    ClauseRef clauseRef() const { return word; }
    Lit otherLit() const
    {
        const auto idx = word & ~kBinTag;
        return mkLit(static_cast<Var>(idx >> 1), (idx & 1) != 0);
    }

  private:
    static constexpr std::uint32_t kBinTag = 0x80000000U;
    std::uint32_t word = kRefUndef;
};

/** Tunable solver parameters; see the preset factories. */
struct SolverConfig
{
    /** Use EVSIDS activities (otherwise lowest-index branching). */
    bool useVsids = true;
    /** Remember and reuse the last assigned polarity per variable. */
    bool phaseSaving = true;
    /** Polarity used before any phase has been saved. */
    bool initialPhaseTrue = false;
    /** Per-conflict variable activity decay factor. */
    double varDecay = 0.95;
    /** Per-conflict clause activity decay factor. */
    double clauseDecay = 0.999;
    /** Luby restart unit, in conflicts. */
    std::int64_t restartBase = 100;
    /** Use the Luby sequence (otherwise geometric x1.5). */
    bool lubyRestarts = true;
    /** Reduce the learnt clause database periodically. */
    bool reduceDb = true;
    /** Apply bounded variable elimination before solving. */
    bool preprocess = false;
    /** Abort with Unknown after this many conflicts (-1 = unlimited). */
    std::int64_t conflictBudget = -1;

    /** @name Learn-time clause improvement. @{ */
    /**
     * On-the-fly self-subsumption: during conflict analysis, when
     * the running resolvent turns out to equal an antecedent minus
     * its pivot literal (a constant-time size check per resolution
     * step), that antecedent is strengthened in the arena right
     * after backtracking (see Solver::otfStrengthen()).
     */
    bool otfSubsume = true;
    /** Strengthening candidates remembered per conflict. */
    unsigned otfMaxAntecedents = 32;
    /** @} */

    bool operator==(const SolverConfig &) const = default;

    /** Plain CDCL: the paper's "CVC5 lane". */
    static SolverConfig baseline();
    /** Preprocessing-heavy CDCL: the paper's "Bitwuzla lane". */
    static SolverConfig simplify();
};

/** Aggregate counters reported by the solver. */
struct SolverStats
{
    std::int64_t decisions = 0;
    std::int64_t propagations = 0;
    /** Implications enqueued from the specialized binary watch
     *  lists (no arena access on that path). */
    std::int64_t binPropagations = 0;
    /**
     * Arena clause dereferences performed INSIDE propagate(), from
     * the long-clause path only: the binary path contributes zero by
     * construction, which the tests assert on binary-only formulas.
     */
    std::int64_t propagationArenaReads = 0;
    std::int64_t conflicts = 0;
    std::int64_t restarts = 0;
    std::int64_t learntClauses = 0;
    std::int64_t removedClauses = 0;
    std::int64_t eliminatedVars = 0;

    /** @name Clause-improvement / arena counters. @{ */
    /** Always 0; perfbench reads it until a bench-only change drops it. */
    std::int64_t inprocessRuns = 0;
    /** Antecedents strengthened at learn time (on-the-fly
     *  self-subsumption during analyze(); one literal each). */
    std::int64_t otfStrengthenedClauses = 0;
    /** OTF candidates that matched but could not be edited safely
     *  mid-search (fewer than two non-false literals would remain). */
    std::int64_t otfSkipped = 0;
    std::int64_t gcRuns = 0;            ///< arena compactions
    std::int64_t gcWordsReclaimed = 0;  ///< 32-bit words freed by GC
    std::int64_t arenaPeakWords = 0;    ///< peak clause-arena size
    std::int64_t peakLearnts = 0;       ///< peak live learnt clauses
    /** @} */

    /** Wall seconds solve() spent at entry on bounded variable
     *  elimination, before any search. */
    double preprocessSeconds = 0.0;

    /** Add every counter of @p other (lane/session aggregation; the
     *  peak fields aggregate as sums of per-solver peaks). */
    void accumulate(const SolverStats &other);
};

/** CDCL SAT solver over clauses added via addClause()/addCnf(). */
class Solver
{
  public:
    explicit Solver(SolverConfig config = SolverConfig::baseline());
    ~Solver();

    Solver(const Solver &) = delete;
    Solver &operator=(const Solver &) = delete;

    /** Allocate a fresh variable. */
    Var newVar();

    /** Current number of variables. */
    Var numVars() const { return static_cast<Var>(assigns.size()); }

    /**
     * Add a clause.
     *
     * @return false when the formula is already unsatisfiable at the
     *         root level (subsequent solve() calls return Unsat).
     */
    bool addClause(LitVec lits);

    /** Add every clause of @p cnf (variables are created as needed). */
    void addCnf(const Cnf &cnf);

    /** Decide satisfiability of the clauses added so far. */
    SolveResult solve();

    /**
     * Decide satisfiability under @p assumptions (incremental,
     * MiniSat-style).  Assumptions are enqueued as decisions, never as
     * clauses, so everything learnt during the call is a consequence of
     * the clause database alone and is retained for later calls: the
     * solver stays usable (and warm) after any answer.
     *
     * On Unsat, failedAssumptions() holds the subset of @p assumptions
     * the conflict actually used.  Bounded variable elimination is
     * skipped for assumption-based solving (eliminated variables could
     * appear in later assumptions or clauses).
     */
    SolveResult solve(const LitVec &assumptions);

    /**
     * After solve(assumptions) returned Unsat: the subset of the
     * assumption literals whose conjunction is already unsatisfiable
     * with the clause database (the "final conflict").  Empty when the
     * database is unsatisfiable on its own.
     */
    const LitVec &failedAssumptions() const { return conflictCore; }

    /** Model value of @p v after a Sat answer. */
    LBool modelValue(Var v) const;

    /**
     * Cooperative cancellation point (cancelled requests): search()
     * polls @p flag and returns Unknown once it becomes true.  Pass
     * nullptr to detach.  The solver remains fully usable afterwards.
     */
    void setStopFlag(const std::atomic<bool> *flag) { stopFlag = flag; }

    /**
     * Compact the clause arena NOW, relocating every live clause and
     * patching all watchers (blockers preserved), reasons and clause
     * lists.  Runs automatically after database reductions once >20%
     * of the arena is garbage; public for tests and embedders that
     * want deterministic compaction points.  Safe at any decision
     * level.
     */
    void garbageCollect();

    const SolverStats &stats() const { return statistics; }
    const SolverConfig &config() const { return cfg; }

    /**
     * Walk the whole solver state and qbAssert its structural
     * invariants: every live arena clause has size >= 3 and is
     * watched exactly twice under its first two literals with a
     * blocker drawn from the clause, every watcher points at a live
     * clause, the binary implication graph is well formed (each edge
     * a→b has its mirror ¬b→¬a filed with the same learnt flag, no
     * self- or duplicate binaries), every assigned variable's
     * reason is consistent (long reasons live with the implied
     * literal in slot 0, binary reasons with a false other literal),
     * and the arena's waste accounting is exact (live words + wasted
     * == arena words).
     *
     * O(database size) - debug tooling, not a hot-path check.  The
     * verification engine calls it at query boundaries when built
     * with QB_DEBUG_CHECKS; it is valid at any quiesced point, at any
     * decision level.
     */
    void checkInvariants() const;

  private:
    struct Watcher;
    struct BinWatcher;
    class VarOrder;

    LBool value(Lit l) const;
    LBool value(Var v) const { return assigns[v]; }
    int decisionLevel() const
    {
        return static_cast<int>(trailLim.size());
    }

    void attachClause(ClauseRef cr);
    void detachClause(ClauseRef cr);
    /**
     * File the binary clause (@p a ∨ @p b) in both binary watch
     * lists.  Duplicate-aware: re-adding an existing binary is a
     * no-op (a problem-status duplicate upgrades a learnt entry to
     * problem status in both lists).  @return true when a new edge
     * pair was actually filed.
     */
    bool attachBinary(Lit a, Lit b, bool learnt);
    void removeClause(ClauseRef cr);
    bool locked(ClauseRef cr) const;
    void uncheckedEnqueue(Lit l, Reason reason);
    ClauseRef propagate();
    Clause &reasonClause(Var v);
    void analyze(ClauseRef conflict, LitVec &out_learnt,
                 int &out_btlevel, unsigned &out_lbd);
    void analyzeFinal(Lit failed);
    bool litRedundant(Lit l, std::uint32_t ab_levels);
    void otfStrengthen();
    void strengthenInPlace(ClauseRef cr, Lit l);
    void restoreEliminated();
    void cancelUntil(int target_level);
    Lit pickBranchLit();
    SolveResult search(std::int64_t conflict_limit);
    void reduceDb();
    void varBumpActivity(Var v);
    void varDecayActivity();
    void claBumpActivity(Clause &c);
    void claDecayActivity();
    unsigned computeLbd(const LitVec &lits);
    bool preprocessEliminate();
    void maybeGarbageCollect();
    void relocAll(ClauseAllocator &to);
    void notePeaks();
    static std::int64_t luby(std::int64_t i);

    SolverConfig cfg;
    SolverStats statistics;

    ClauseAllocator ca;
    std::vector<ClauseRef> problemClauses;
    std::vector<ClauseRef> learntClauses;
    /** Long-clause (size >= 3) watchers, indexed by Lit::index(). */
    std::vector<std::vector<Watcher>> watches;
    /** Binary-clause watchers: the implied literal rides in the
     *  watcher, so propagating a binary never touches the arena. */
    std::vector<std::vector<BinWatcher>> binWatches;

    std::vector<LBool> assigns;
    std::vector<int> levels;
    std::vector<Reason> reasons;
    std::vector<bool> polarity;
    std::vector<double> activity;
    std::vector<char> seen;

    std::vector<Lit> trail;
    std::vector<int> trailLim;
    std::vector<Var> analyzeClear;
    /** An antecedent the current conflict's resolvent was found to
     *  self-subsume: drop @p pivot from the clause behind @p cref
     *  (see otfStrengthen()). */
    struct OtfCandidate
    {
        ClauseRef cref;
        Lit pivot;
    };
    /** Candidates of the conflict being analyzed; applied by
     *  otfStrengthen() after backtracking, cleared every conflict. */
    std::vector<OtfCandidate> otfCandidates;
    std::size_t qhead = 0;

    std::unique_ptr<VarOrder> order;
    double varInc = 1.0;
    double claInc = 1.0;
    bool okay = true;
    bool preprocessed = false;

    /** The two literals of a conflicting binary clause found by
     *  propagate(), which has no arena clause to return: propagate()
     *  reports the sentinel kBinConflictRef and analyze()/solve()
     *  read the conflict literals from here. */
    Lit binConflict[2] = {kUndefLit, kUndefLit};

    LitVec assumptions;  ///< active assumptions of the current call
    LitVec conflictCore; ///< failed assumptions of the last Unsat
    /** statistics.conflicts at entry of the current solve() call;
     *  makes the conflict budget per-call for incremental use. */
    std::int64_t conflictsAtCallStart = 0;
    const std::atomic<bool> *stopFlag = nullptr;

    std::vector<LBool> model;
    /** One bounded variable elimination: the variable and the range
     *  of elimClauses holding the clauses it removed. */
    struct Elimination
    {
        Var var;
        std::uint32_t firstClause;
        std::uint32_t endClause;
    };
    /** Eliminated-variable reconstruction stack, oldest first. */
    std::vector<Elimination> elimStack;
    ClauseList elimClauses;
};

/** One-shot convenience: decide a Cnf with the given configuration. */
SolveResult solveCnf(const Cnf &cnf,
                     SolverConfig config = SolverConfig::baseline(),
                     SolverStats *stats_out = nullptr);

} // namespace qb::sat

#endif // QB_SAT_SOLVER_H
