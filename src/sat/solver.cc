#include "sat/solver.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "support/logging.h"
#include "support/timer.h"

namespace qb::sat {

SolverConfig
SolverConfig::baseline()
{
    SolverConfig cfg;
    cfg.useVsids = true;
    cfg.phaseSaving = true;
    cfg.initialPhaseTrue = false;
    cfg.lubyRestarts = true;
    cfg.preprocess = false;
    return cfg;
}

SolverConfig
SolverConfig::simplify()
{
    SolverConfig cfg;
    cfg.useVsids = true;
    cfg.phaseSaving = true;
    cfg.initialPhaseTrue = true;
    cfg.lubyRestarts = true;
    cfg.restartBase = 2000; // long runs before restarting
    cfg.varDecay = 0.75;    // aggressive recency bias
    cfg.preprocess = true;
    return cfg;
}

void
SolverStats::accumulate(const SolverStats &other)
{
    decisions += other.decisions;
    propagations += other.propagations;
    binPropagations += other.binPropagations;
    propagationArenaReads += other.propagationArenaReads;
    conflicts += other.conflicts;
    restarts += other.restarts;
    learntClauses += other.learntClauses;
    removedClauses += other.removedClauses;
    eliminatedVars += other.eliminatedVars;
    inprocessRuns += other.inprocessRuns;
    otfStrengthenedClauses += other.otfStrengthenedClauses;
    otfSkipped += other.otfSkipped;
    gcRuns += other.gcRuns;
    gcWordsReclaimed += other.gcWordsReclaimed;
    arenaPeakWords += other.arenaPeakWords;
    peakLearnts += other.peakLearnts;
    preprocessSeconds += other.preprocessSeconds;
}

namespace {

/** Inverse of Lit::index(). */
inline Lit
litFromIndex(std::size_t idx)
{
    return mkLit(static_cast<Var>(idx >> 1), (idx & 1) != 0);
}

/**
 * Conflict "reference" propagate() reports for a falsified binary
 * clause, which has no arena clause to name: the two conflict
 * literals are parked in Solver::binConflict instead.  Distinct from
 * kRefUndef (so every `conflict != kRefUndef` check still works) and
 * unreachable as a real allocation in any practical arena.
 */
constexpr ClauseRef kBinConflictRef = kRefUndef - 1;

} // namespace

/** Watch-list entry; blocker enables the common fast-path check that
 *  decides most visits without ever dereferencing the arena. */
struct Solver::Watcher
{
    ClauseRef cref;
    Lit blocker;
};

/**
 * Binary watch-list entry: the OTHER literal of the clause rides in
 * the watcher, so visiting a binary clause needs one assignment probe
 * and zero arena reads - implication and conflict alike.  Binary
 * clauses exist ONLY as their two mirrored entries (no arena clause at
 * all): an implication carries the other literal in the Reason word,
 * a conflict is reported through Solver::binConflict, and the learnt
 * flag rides here so the two entries of a clause agree on its status.
 */
struct Solver::BinWatcher
{
    Lit other;
    bool learnt;
};

/** Binary max-heap over variables ordered by EVSIDS activity. */
class Solver::VarOrder
{
  public:
    explicit VarOrder(const std::vector<double> &act) : activity(act) {}

    void
    insert(Var v)
    {
        if (v >= static_cast<Var>(position.size()))
            position.resize(v + 1, -1);
        if (position[v] >= 0)
            return;
        position[v] = static_cast<int>(heap.size());
        heap.push_back(v);
        siftUp(position[v]);
    }

    bool empty() const { return heap.empty(); }

    Var
    removeMax()
    {
        const Var top = heap[0];
        position[top] = -1;
        if (heap.size() > 1) {
            heap[0] = heap.back();
            position[heap[0]] = 0;
            heap.pop_back();
            siftDown(0);
        } else {
            heap.pop_back();
        }
        return top;
    }

    void
    update(Var v)
    {
        if (v < static_cast<Var>(position.size()) && position[v] >= 0)
            siftUp(position[v]);
    }

  private:
    bool
    less(Var a, Var b) const
    {
        return activity[a] < activity[b] ||
               (activity[a] == activity[b] && a > b);
    }

    void
    siftUp(int i)
    {
        while (i > 0) {
            const int parent = (i - 1) / 2;
            if (!less(heap[parent], heap[i]))
                break;
            std::swap(heap[parent], heap[i]);
            position[heap[parent]] = parent;
            position[heap[i]] = i;
            i = parent;
        }
    }

    void
    siftDown(int i)
    {
        const int n = static_cast<int>(heap.size());
        while (true) {
            const int l = 2 * i + 1, r = 2 * i + 2;
            int best = i;
            if (l < n && less(heap[best], heap[l]))
                best = l;
            if (r < n && less(heap[best], heap[r]))
                best = r;
            if (best == i)
                break;
            std::swap(heap[best], heap[i]);
            position[heap[best]] = best;
            position[heap[i]] = i;
            i = best;
        }
    }

    const std::vector<double> &activity;
    std::vector<Var> heap;
    std::vector<int> position;
};

Solver::Solver(SolverConfig config)
    : cfg(config), order(std::make_unique<VarOrder>(activity))
{
}

Solver::~Solver() = default;

Var
Solver::newVar()
{
    const Var v = numVars();
    assigns.push_back(LBool::Undef);
    levels.push_back(0);
    reasons.push_back(Reason());
    polarity.push_back(cfg.initialPhaseTrue);
    activity.push_back(0.0);
    seen.push_back(0);
    watches.emplace_back();
    watches.emplace_back();
    binWatches.emplace_back();
    binWatches.emplace_back();
    order->insert(v);
    return v;
}

LBool
Solver::value(Lit l) const
{
    const LBool v = assigns[l.var()];
    return l.sign() ? lboolNeg(v) : v;
}

void
Solver::notePeaks()
{
    statistics.arenaPeakWords =
        std::max<std::int64_t>(statistics.arenaPeakWords,
                               static_cast<std::int64_t>(ca.words()));
    statistics.peakLearnts = std::max<std::int64_t>(
        statistics.peakLearnts,
        static_cast<std::int64_t>(learntClauses.size()));
}

bool
Solver::addClause(LitVec lits)
{
    qbAssert(decisionLevel() == 0, "addClause above root level");
    if (!okay)
        return false;
    // New clauses must not be simplified against the placeholder
    // assignments bounded variable elimination leaves behind; undo
    // the elimination first (restoreEliminated() re-enters here with
    // the stack already cleared).
    if (!elimStack.empty()) {
        restoreEliminated();
        // Restoration re-adds the eliminated clauses through this very
        // function; if that latched root unsatisfiability, the solver
        // is broken and the new clause must not be simplified against
        // or attached to it.
        if (!okay)
            return false;
    }
    for (Lit l : lits) {
        while (l.var() >= numVars())
            newVar();
    }
    std::sort(lits.begin(), lits.end());
    LitVec kept;
    Lit prev = kUndefLit;
    for (Lit l : lits) {
        if (value(l) == LBool::True || l == ~prev)
            return true; // satisfied or tautological
        if (value(l) != LBool::False && l != prev)
            kept.push_back(l);
        prev = l;
    }
    if (kept.empty()) {
        okay = false;
        return false;
    }
    if (kept.size() == 1) {
        uncheckedEnqueue(kept[0], Reason());
        okay = propagate() == kRefUndef;
        return okay;
    }
    if (kept.size() == 2) {
        // Binary clauses never touch the arena: the mirrored watcher
        // pair IS the clause.
        attachBinary(kept[0], kept[1], /*learnt=*/false);
        return true;
    }
    const ClauseRef cr = ca.alloc(kept, /*learnt=*/false, /*lbd=*/0);
    problemClauses.push_back(cr);
    attachClause(cr);
    notePeaks();
    return true;
}

void
Solver::addCnf(const Cnf &cnf)
{
    while (numVars() < cnf.numVars())
        newVar();
    if (cnf.trivialConflict())
        okay = false;
    for (const LitVec &c : cnf.clauses()) {
        if (!addClause(c))
            return;
    }
}

void
Solver::attachClause(ClauseRef cr)
{
    const Clause &c = ca[cr];
    qbAssert(c.size() >= 3, "attaching short clause");
    watches[(~c[0]).index()].push_back({cr, c[1]});
    watches[(~c[1]).index()].push_back({cr, c[0]});
}

void
Solver::detachClause(ClauseRef cr)
{
    const Clause &c = ca[cr];
    for (Lit w : {c[0], c[1]}) {
        auto &list = watches[(~w).index()];
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (list[i].cref == cr) {
                list[i] = list.back();
                list.pop_back();
                break;
            }
        }
    }
}

bool
Solver::attachBinary(Lit a, Lit b, bool learnt)
{
    qbAssert(a.var() != b.var(), "degenerate binary clause");
    // Duplicate-aware: the lists stay set-like, so a re-added or
    // re-derived binary (an OTF shrink to two literals) files no second
    // edge pair.  A problem-status duplicate of a learnt binary
    // upgrades both existing entries instead.
    auto &fwd = binWatches[(~a).index()];
    for (BinWatcher &w : fwd) {
        if (w.other != b)
            continue;
        if (!learnt && w.learnt) {
            w.learnt = false;
            for (BinWatcher &m : binWatches[(~b).index()]) {
                if (m.other == a)
                    m.learnt = false;
            }
        }
        return false;
    }
    fwd.push_back({b, learnt});
    binWatches[(~b).index()].push_back({a, learnt});
    return true;
}

void
Solver::checkInvariants() const
{
    // Live set + exact arena accounting: everything problemClauses
    // and learntClauses reference, and nothing else, occupies the
    // non-wasted part of the arena.  Binary clauses live only in the
    // binary watch lists, so every arena clause has size >= 3.
    std::unordered_set<ClauseRef> live;
    std::size_t live_words = 0;
    for (const auto *list : {&problemClauses, &learntClauses}) {
        for (const ClauseRef cr : *list) {
            qbAssert(live.insert(cr).second,
                     "invariant: clause listed twice");
            const Clause &c = ca[cr];
            qbAssert(c.size() >= 3,
                     "invariant: short clause in the arena");
            live_words += ClauseAllocator::kHeaderWords + c.size();
        }
    }
    qbAssert(live_words + ca.wasted() == ca.words(),
             "invariant: arena waste accounting drifted");

    // Every watcher points at a live clause and is filed under one of
    // its two watched slots, with a blocker drawn from the clause.
    // Counting per (clause, slot) makes the exactly-twice property of
    // attachClause() checkable in one scan.
    std::unordered_map<ClauseRef, unsigned> seen_watch;
    std::size_t long_watchers = 0;
    for (std::size_t idx = 0; idx < watches.size(); ++idx) {
        for (const Watcher &w : watches[idx]) {
            ++long_watchers;
            qbAssert(live.count(w.cref),
                     "invariant: watcher on freed clause");
            const Clause &c = ca[w.cref];
            qbAssert((~c[0]).index() == idx || (~c[1]).index() == idx,
                     "invariant: watcher filed under an unwatched "
                     "literal");
            bool blocker_in_clause = false;
            for (unsigned i = 0; i < c.size() && !blocker_in_clause;
                 ++i)
                blocker_in_clause = c[i] == w.blocker;
            qbAssert(blocker_in_clause,
                     "invariant: blocker not in its clause");
            ++seen_watch[w.cref];
        }
    }
    qbAssert(long_watchers == 2 * live.size(),
             "invariant: long watcher count != 2 * live clauses");
    for (const ClauseRef cr : live)
        qbAssert(seen_watch[cr] == 2,
                 "invariant: live clause not watched exactly twice");

    // The binary implication graph: every directed edge a→b (filed
    // under a's index with b inlined) appears once, never self-loops,
    // and has its mirror edge
    // ¬b→¬a filed with the SAME learnt flag - the two entries of one
    // clause must agree on everything.
    std::unordered_map<std::uint64_t, bool> edges;
    for (std::size_t idx = 0; idx < binWatches.size(); ++idx) {
        const Lit trigger = litFromIndex(idx);
        for (const BinWatcher &w : binWatches[idx]) {
            qbAssert(w.other.var() != trigger.var(),
                     "invariant: self or tautological binary");
            const std::uint64_t key =
                (static_cast<std::uint64_t>(idx) << 32) |
                static_cast<std::uint64_t>(w.other.index());
            qbAssert(edges.emplace(key, w.learnt).second,
                     "invariant: duplicate binary edge");
        }
    }
    for (const auto &[key, learnt] : edges) {
        // Edge idx→other mirrors as (other^1)→(idx^1): negating a
        // literal flips the low bit of its index.
        const std::uint64_t mirror =
            (((key & 0xFFFFFFFFULL) ^ 1ULL) << 32) |
            ((key >> 32) ^ 1ULL);
        const auto it = edges.find(mirror);
        qbAssert(it != edges.end(),
                 "invariant: binary edge missing its mirror");
        qbAssert(it->second == learnt,
                 "invariant: binary mirror learnt-flag mismatch");
    }

    // Trail/reason consistency.  Long reasons keep the implied
    // literal normalized into slot 0; a binary reason is
    // self-contained - its word holds the OTHER literal of the
    // clause, which must be false for as long as the implication
    // stands (the other literal was falsified at or below the
    // implied literal's level).
    for (const Lit l : trail) {
        qbAssert(value(l) == LBool::True,
                 "invariant: false literal on the trail");
        const Reason r = reasons[l.var()];
        if (r.isUndef())
            continue;
        if (r.isBinary()) {
            qbAssert(value(r.otherLit()) == LBool::False,
                     "invariant: binary reason's other literal not "
                     "false");
            continue;
        }
        qbAssert(live.count(r.clauseRef()),
                 "invariant: reason clause was freed");
        const Clause &c = ca[r.clauseRef()];
        qbAssert(c[0] == l,
                 "invariant: reason clause does not imply its "
                 "literal");
    }
}

void
Solver::removeClause(ClauseRef cr)
{
    detachClause(cr);
    ca.free(cr);
    ++statistics.removedClauses;
}

bool
Solver::locked(ClauseRef cr) const
{
    // Only long clauses live in the arena, and long-clause
    // propagation normalizes the implied literal into slot 0.
    const Clause &c = ca[cr];
    const Reason r = reasons[c[0].var()];
    return r.isClause() && r.clauseRef() == cr &&
           value(c[0]) == LBool::True;
}

void
Solver::uncheckedEnqueue(Lit l, Reason reason)
{
    qbAssert(value(l) == LBool::Undef, "enqueue of assigned literal");
    assigns[l.var()] = lboolOf(!l.sign());
    levels[l.var()] = decisionLevel();
    reasons[l.var()] = reason;
    if (cfg.phaseSaving)
        polarity[l.var()] = !l.sign();
    trail.push_back(l);
}

ClauseRef
Solver::propagate()
{
    ClauseRef conflict = kRefUndef;
    const std::uint64_t derefs_before = ca.derefCount();
    while (qhead < trail.size()) {
        const Lit p = trail[qhead++];
        ++statistics.propagations;
        // Binary clauses first: the implied literal is inlined in the
        // watcher, so this whole loop performs zero arena reads -
        // every binary is decided from the watcher pair and the
        // assignment array alone.  Running them before the long
        // clauses also finds the cheap implications (and conflicts)
        // before any clause memory is touched.
        {
            const auto &bins = binWatches[p.index()];
            for (const BinWatcher w : bins) {
                const LBool v = value(w.other);
                if (v == LBool::True)
                    continue;
                if (v == LBool::False) {
                    // No arena clause to name: report the sentinel
                    // and park the two literals for analyze().
                    binConflict[0] = ~p;
                    binConflict[1] = w.other;
                    conflict = kBinConflictRef;
                    qhead = trail.size();
                    break;
                }
                ++statistics.binPropagations;
                uncheckedEnqueue(w.other, Reason::binary(~p));
            }
            if (conflict != kRefUndef)
                break;
        }
        auto &list = watches[p.index()];
        std::size_t keep = 0;
        std::size_t i = 0;
        for (; i < list.size(); ++i) {
            const Watcher w = list[i];
            // Blocker fast path: one literal probe, no arena access.
            if (value(w.blocker) == LBool::True) {
                list[keep++] = w;
                continue;
            }
            Clause &c = ca[w.cref];
            // Normalize so the false literal ~p sits at lits[1].
            const Lit not_p = ~p;
            if (c[0] == not_p)
                std::swap(c[0], c[1]);
            const Lit first = c[0];
            if (first != w.blocker && value(first) == LBool::True) {
                list[keep++] = {w.cref, first};
                continue;
            }
            // Look for a replacement watch.
            bool moved = false;
            const unsigned size = c.size();
            for (unsigned k = 2; k < size; ++k) {
                if (value(c[k]) != LBool::False) {
                    std::swap(c[1], c[k]);
                    watches[(~c[1]).index()].push_back(
                        {w.cref, first});
                    moved = true;
                    break;
                }
            }
            if (moved)
                continue;
            // Clause is unit or conflicting.
            list[keep++] = {w.cref, first};
            if (value(first) == LBool::False) {
                conflict = w.cref;
                qhead = trail.size();
                ++i;
                break;
            }
            uncheckedEnqueue(first, Reason::clause(w.cref));
        }
        for (; i < list.size(); ++i)
            list[keep++] = list[i];
        list.resize(keep);
        if (conflict != kRefUndef)
            break;
    }
    statistics.propagationArenaReads += static_cast<std::int64_t>(
        ca.derefCount() - derefs_before);
    return conflict;
}

/**
 * The LONG reason clause of assigned variable @p v, with the implied
 * literal in slot 0 - the layout conflict analysis iterates from
 * index 1 under, established by the propagation loop itself.  Binary
 * reasons never reach here: their single antecedent literal is read
 * straight out of the Reason word.
 */
Clause &
Solver::reasonClause(Var v)
{
    const Reason r = reasons[v];
    qbAssert(r.isClause(), "reasonClause without long reason");
    Clause &c = ca[r.clauseRef()];
    qbAssert(c[0].var() == v, "unnormalized long reason");
    return c;
}

unsigned
Solver::computeLbd(const LitVec &lits)
{
    // Number of distinct decision levels; small LBD = valuable clause.
    std::vector<int> lvl;
    lvl.reserve(lits.size());
    for (Lit l : lits)
        lvl.push_back(levels[l.var()]);
    std::sort(lvl.begin(), lvl.end());
    return static_cast<unsigned>(
        std::unique(lvl.begin(), lvl.end()) - lvl.begin());
}

void
Solver::analyze(ClauseRef conflict, LitVec &out_learnt, int &out_btlevel,
                unsigned &out_lbd)
{
    out_learnt.clear();
    out_learnt.push_back(kUndefLit); // slot for the asserting literal
    otfCandidates.clear();
    int counter = 0;
    Lit p = kUndefLit;
    std::size_t index = trail.size();
    do {
        // Resolution source: the conflict first, then each pivot's
        // reason.  A binary source has no arena clause - its
        // antecedent literals come from binConflict (both literals)
        // or the pivot's Reason word (the single other literal).
        Lit bin_tail[2];
        const Lit *tail = nullptr;
        std::size_t tail_size = 0;
        Clause *rc = nullptr;
        ClauseRef rc_ref = kRefUndef;
        if (p == kUndefLit) {
            if (conflict == kBinConflictRef) {
                bin_tail[0] = binConflict[0];
                bin_tail[1] = binConflict[1];
                tail = bin_tail;
                tail_size = 2;
            } else {
                rc = &ca[conflict];
                rc_ref = conflict;
            }
        } else {
            const Reason r = reasons[p.var()];
            qbAssert(!r.isUndef(), "analyze without reason");
            if (r.isBinary()) {
                bin_tail[0] = r.otherLit();
                tail = bin_tail;
                tail_size = 1;
            } else {
                rc = &reasonClause(p.var());
                rc_ref = r.clauseRef();
            }
        }
        if (rc != nullptr) {
            if (rc->learnt())
                claBumpActivity(*rc);
            const std::size_t start = (p == kUndefLit) ? 0 : 1;
            tail = rc->begin() + start;
            tail_size = rc->size() - start;
        }
        unsigned root_lits = 0;
        for (std::size_t j = 0; j < tail_size; ++j) {
            const Lit q = tail[j];
            if (levels[q.var()] == 0)
                ++root_lits;
            if (!seen[q.var()] && levels[q.var()] > 0) {
                seen[q.var()] = 1;
                varBumpActivity(q.var());
                if (levels[q.var()] >= decisionLevel())
                    ++counter;
                else
                    out_learnt.push_back(q);
            }
        }
        // On-the-fly self-subsumption (Han/Somenzi-style): the
        // running resolvent is `counter` conflict-level literals
        // plus the out_learnt tail.  Right after resolving reason rc
        // on pivot p, the resolvent contains all of rc except the
        // pivot and rc's root-false literals (rc's other literals
        // were assigned before p, so none has been resolved away
        // yet); if the sizes match it IS exactly that set, i.e. an
        // implied clause subsuming rc with the pivot removed.
        // Remember (rc, pivot); search() strengthens the arena in
        // place once backtracking has unlocked the antecedent.
        // Binary reasons have nothing to strengthen.
        if (cfg.otfSubsume && p != kUndefLit && rc != nullptr &&
            rc->size() >= 3 &&
            otfCandidates.size() < cfg.otfMaxAntecedents) {
            const std::size_t resolvent =
                static_cast<std::size_t>(counter) +
                out_learnt.size() - 1;
            if (resolvent + root_lits + 1 == rc->size())
                otfCandidates.push_back({rc_ref, (*rc)[0]});
        }
        // Pick the next seen literal from the trail.
        while (!seen[trail[index - 1].var()])
            --index;
        p = trail[--index];
        seen[p.var()] = 0;
        --counter;
    } while (counter > 0);
    out_learnt[0] = ~p;

    // Recursive minimization: drop literals implied by the rest.  All
    // seen[] marks set here and in litRedundant() are collected so they
    // can be cleared before the next analyze() call.
    analyzeClear.clear();
    for (std::size_t i = 1; i < out_learnt.size(); ++i)
        analyzeClear.push_back(out_learnt[i].var());
    std::uint32_t ab_levels = 0;
    for (std::size_t i = 1; i < out_learnt.size(); ++i)
        ab_levels |= 1u << (levels[out_learnt[i].var()] & 31);
    std::size_t keep = 1;
    for (std::size_t i = 1; i < out_learnt.size(); ++i) {
        const Lit l = out_learnt[i];
        if (reasons[l.var()].isUndef() ||
            !litRedundant(l, ab_levels))
            out_learnt[keep++] = l;
    }
    out_learnt.resize(keep);

    out_btlevel = 0;
    if (out_learnt.size() > 1) {
        std::size_t max_i = 1;
        for (std::size_t i = 2; i < out_learnt.size(); ++i) {
            if (levels[out_learnt[i].var()] >
                levels[out_learnt[max_i].var()])
                max_i = i;
        }
        std::swap(out_learnt[1], out_learnt[max_i]);
        out_btlevel = levels[out_learnt[1].var()];
    }
    out_lbd = computeLbd(out_learnt);
    for (Var v : analyzeClear)
        seen[v] = 0;
}

void
Solver::analyzeFinal(Lit failed)
{
    // Final-conflict analysis (MiniSat's analyzeFinal): @p failed is an
    // assumption whose negation is implied by the other assumptions.
    // Walk the trail backwards from the implication, expanding reasons;
    // every reason-less (decision) literal reached is an assumption
    // participating in the conflict.  Expressed directly in assumption
    // literals rather than as a negated conflict clause.
    conflictCore.clear();
    conflictCore.push_back(failed);
    if (decisionLevel() > 0) {
        seen[failed.var()] = 1;
        for (std::size_t i = trail.size();
             i > static_cast<std::size_t>(trailLim[0]); --i) {
            const Var x = trail[i - 1].var();
            if (!seen[x])
                continue;
            const Reason r = reasons[x];
            if (r.isUndef()) {
                // Decisions below the assumption prefix are
                // assumptions.
                conflictCore.push_back(trail[i - 1]);
            } else if (r.isBinary()) {
                const Var v = r.otherLit().var();
                if (levels[v] > 0)
                    seen[v] = 1;
            } else {
                const Clause &rc = reasonClause(x);
                const unsigned size = rc.size();
                for (std::size_t j = 1; j < size; ++j) {
                    const Var v = rc[j].var();
                    if (levels[v] > 0)
                        seen[v] = 1;
                }
            }
            seen[x] = 0;
        }
        seen[failed.var()] = 0;
    }
}

bool
Solver::litRedundant(Lit l, std::uint32_t ab_levels)
{
    // Depth-first check that every antecedent of l is already seen.
    std::vector<Lit> stack{l};
    std::vector<Var> cleared;
    bool redundant = true;
    // One antecedent literal: already-seen/root literals pass, a
    // decision or level outside the learnt clause's level set fails,
    // anything else is explored in turn.
    const auto visit = [this, &ab_levels, &cleared,
                        &stack](const Lit q) {
        if (seen[q.var()] || levels[q.var()] == 0)
            return true;
        if (reasons[q.var()].isUndef() ||
            !(ab_levels & (1U << (levels[q.var()] & 31))))
            return false;
        seen[q.var()] = 1;
        cleared.push_back(q.var());
        stack.push_back(q);
        return true;
    };
    while (!stack.empty() && redundant) {
        const Lit cur = stack.back();
        stack.pop_back();
        const Reason r = reasons[cur.var()];
        qbAssert(!r.isUndef(), "litRedundant without reason");
        if (r.isBinary()) {
            redundant = visit(r.otherLit());
            continue;
        }
        const Clause &rc = reasonClause(cur.var());
        const unsigned size = rc.size();
        for (std::size_t j = 1; j < size && redundant; ++j)
            redundant = visit(rc[j]);
    }
    if (!redundant) {
        for (Var v : cleared)
            seen[v] = 0;
    } else {
        // Keep the marks (they short-circuit later redundancy checks)
        // but register them for clearing at the end of analyze().
        analyzeClear.insert(analyzeClear.end(), cleared.begin(),
                            cleared.end());
    }
    return redundant;
}

/**
 * On-the-fly self-subsumption (learn-time clause improvement): apply
 * the strengthenings analyze() discovered - during resolution, the
 * running resolvent turned out to equal an antecedent minus its
 * pivot, so that antecedent can lose the pivot literal, in the arena.
 *
 * Called from search() AFTER backtracking to the assertion level:
 * every candidate was the reason of a conflict-level variable, so
 * none is locked any more and detaching is safe.  The edit keeps all
 * watch invariants: the clause is detached, the pivot removed, and
 * watches are re-picked among literals not false under the current
 * assignment - a shrink to binary simply re-attaches through the
 * specialized binary lists.  When fewer than two non-false literals
 * would remain the clause is left untouched (counted as otfSkipped).
 */
void
Solver::otfStrengthen()
{
    for (const auto &[cr, pivot] : otfCandidates) {
        const Clause &c = ca[cr];
        if (locked(cr))
            continue; // defensive: never edit a live reason
        // Commit only if the remainder still has two watchable
        // (non-false) literals right now.
        unsigned nonfalse = 0;
        for (const Lit y : c)
            if (y != pivot && value(y) != LBool::False)
                ++nonfalse;
        if (nonfalse < 2) {
            ++statistics.otfSkipped;
            continue;
        }
        strengthenInPlace(cr, pivot);
        ++statistics.otfStrengthenedClauses;
    }
    otfCandidates.clear();
}

/**
 * Remove @p l from the clause behind @p cr in place: detach, drop the
 * literal (accounting the shaved word), tighten the LBD, re-pick
 * watches among literals not false under the CURRENT assignment and
 * re-attach.  A shrink to TWO literals dissolves the clause out of
 * the arena entirely - it is freed, unlisted and re-filed as a
 * mirrored pair in the binary watch lists.  The caller guarantees at
 * least two literals stay non-false.
 */
void
Solver::strengthenInPlace(ClauseRef cr, Lit l)
{
    detachClause(cr);
    Clause &c = ca[cr];
    c.removeLiteral(l);
    ca.noteShrink(1);
    c.setLbd(std::min(c.lbd(), c.size()));
    std::size_t nonfalse = 0;
    for (std::size_t i = 0; i < c.size() && nonfalse < 2; ++i) {
        if (value(c[i]) != LBool::False)
            std::swap(c[nonfalse++], c[i]);
    }
    qbAssert(nonfalse == 2, "strengthening leaves no two watches");
    if (c.size() == 2) {
        const Lit a = c[0];
        const Lit b = c[1];
        const bool learnt = c.learnt();
        auto &list = learnt ? learntClauses : problemClauses;
        std::erase(list, cr);
        ca.free(cr);
        attachBinary(a, b, learnt);
        return;
    }
    attachClause(cr);
}

void
Solver::cancelUntil(int target_level)
{
    if (decisionLevel() <= target_level)
        return;
    for (std::size_t i = trail.size();
         i > static_cast<std::size_t>(trailLim[target_level]); --i) {
        const Var v = trail[i - 1].var();
        assigns[v] = LBool::Undef;
        reasons[v] = Reason();
        order->insert(v);
    }
    trail.resize(trailLim[target_level]);
    trailLim.resize(target_level);
    qhead = trail.size();
}

Lit
Solver::pickBranchLit()
{
    if (cfg.useVsids) {
        while (!order->empty()) {
            // Peek by removing; re-inserted on backtrack.
            const Var v = order->removeMax();
            if (assigns[v] == LBool::Undef)
                return mkLit(v, !polarity[v]);
        }
        return kUndefLit;
    }
    for (Var v = 0; v < numVars(); ++v) {
        if (assigns[v] == LBool::Undef)
            return mkLit(v, !polarity[v]);
    }
    return kUndefLit;
}

void
Solver::varBumpActivity(Var v)
{
    activity[v] += varInc;
    if (activity[v] > 1e100) {
        for (double &a : activity)
            a *= 1e-100;
        varInc *= 1e-100;
    }
    order->update(v);
}

void
Solver::varDecayActivity()
{
    varInc /= cfg.varDecay;
}

void
Solver::claBumpActivity(Clause &c)
{
    c.setActivity(static_cast<float>(c.activity() + claInc));
    if (c.activity() > 1e20f) {
        for (ClauseRef lc : learntClauses) {
            Clause &x = ca[lc];
            x.setActivity(x.activity() * 1e-20f);
        }
        claInc *= 1e-20;
    }
}

void
Solver::claDecayActivity()
{
    claInc /= cfg.clauseDecay;
    // Activities are float in the arena header: rescale on the
    // increment itself, not only on a bump, so a long bump-free streak
    // cannot push claInc past float range.
    if (claInc > 1e20) {
        for (ClauseRef lc : learntClauses) {
            Clause &x = ca[lc];
            x.setActivity(x.activity() * 1e-20f);
        }
        claInc *= 1e-20;
    }
}

void
Solver::reduceDb()
{
    // Keep the better half, ranked by LBD then activity; always keep
    // clauses that are reasons for current assignments.
    std::sort(learntClauses.begin(), learntClauses.end(),
              [this](ClauseRef a, ClauseRef b) {
                  const Clause &x = ca[a];
                  const Clause &y = ca[b];
                  if (x.lbd() != y.lbd())
                      return x.lbd() < y.lbd();
                  return x.activity() > y.activity();
              });
    std::vector<ClauseRef> kept;
    kept.reserve(learntClauses.size());
    const std::size_t limit = learntClauses.size() / 2;
    for (std::size_t i = 0; i < learntClauses.size(); ++i) {
        const ClauseRef cr = learntClauses[i];
        if (i < limit || locked(cr) || ca[cr].lbd() <= 2)
            kept.push_back(cr);
        else
            removeClause(cr);
    }
    learntClauses = std::move(kept);
    maybeGarbageCollect();
}

void
Solver::restoreEliminated()
{
    // Undo bounded variable elimination: clear the placeholder
    // assignments, then re-add the original clauses each elimination
    // saved.  The resolvents stay (they are implied), so nothing that
    // was learnt since becomes unsound.  Restoration runs newest
    // elimination first: a variable's saved clauses can mention
    // variables eliminated later, never earlier (those were already
    // gone from the live clause set when it was eliminated).
    qbAssert(decisionLevel() == 0, "restore above root level");
    // Move the stack aside first: addClause() below re-enters the
    // elimStack guard, which must already see it empty.
    const auto saved = std::move(elimStack);
    const ClauseList clauses = std::move(elimClauses);
    elimStack.clear();
    elimClauses.clear();
    for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
        assigns[it->var] = LBool::Undef;
        order->insert(it->var);
    }
    for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
        for (std::uint32_t k = it->firstClause; k < it->endClause; ++k) {
            const auto clause = clauses[k];
            if (!addClause(LitVec(clause.begin(), clause.end())))
                return;
        }
    }
    statistics.eliminatedVars = 0;
}

std::int64_t
Solver::luby(std::int64_t i)
{
    // Finite-subsequence trick from the MiniSat sources.
    std::int64_t size = 1, seq = 0;
    while (size < i + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) >> 1;
        --seq;
        i = i % size;
    }
    return std::int64_t{1} << seq;
}

SolveResult
Solver::search(std::int64_t conflict_limit)
{
    std::int64_t conflicts_here = 0;
    LitVec learnt;
    while (true) {
        if (stopFlag != nullptr &&
            stopFlag->load(std::memory_order_relaxed)) {
            cancelUntil(0);
            return SolveResult::Unknown;
        }
        const ClauseRef conflict = propagate();
        if (conflict != kRefUndef) {
            ++statistics.conflicts;
            ++conflicts_here;
            if (decisionLevel() == 0) {
                // A root-level conflict means the clause database
                // itself is unsatisfiable; latch that for later
                // incremental calls (the falsified clause has already
                // been consumed from the propagation queue, so a
                // fresh search would not rediscover it).
                okay = false;
                return SolveResult::Unsat;
            }
            int bt_level;
            unsigned lbd;
            analyze(conflict, learnt, bt_level, lbd);
            cancelUntil(bt_level);
            // Learn-time clause improvement: strengthen antecedents
            // the fresh clause self-subsumes, now that backtracking
            // has unlocked them.
            if (cfg.otfSubsume)
                otfStrengthen();
            if (learnt.size() == 1) {
                uncheckedEnqueue(learnt[0], Reason());
            } else if (learnt.size() == 2) {
                // Learnt binaries never touch the arena: the watcher
                // pair is the clause and the Reason word carries the
                // antecedent literal.
                attachBinary(learnt[0], learnt[1], /*learnt=*/true);
                ++statistics.learntClauses;
                uncheckedEnqueue(learnt[0],
                                 Reason::binary(learnt[1]));
            } else {
                const ClauseRef cr =
                    ca.alloc(learnt, /*learnt=*/true, lbd,
                             static_cast<float>(claInc));
                learntClauses.push_back(cr);
                ++statistics.learntClauses;
                attachClause(cr);
                uncheckedEnqueue(learnt[0], Reason::clause(cr));
                notePeaks();
            }
            varDecayActivity();
            claDecayActivity();
            if (cfg.conflictBudget >= 0 &&
                statistics.conflicts - conflictsAtCallStart >=
                    cfg.conflictBudget)
                return SolveResult::Unknown;
        } else {
            if (conflict_limit >= 0 && conflicts_here >= conflict_limit) {
                // Restart: keep the assumption prefix of the trail so
                // the next search round does not re-propagate the
                // whole assumption cone (solve() unwinds to the root
                // before returning to the caller).
                cancelUntil(static_cast<int>(assumptions.size()));
                return SolveResult::Unknown;
            }
            if (cfg.reduceDb &&
                learntClauses.size() >
                    problemClauses.size() / 3 + 3000 + trail.size())
                reduceDb();
            // Extend the assumption prefix before free decisions: each
            // assumption gets its own decision level, so conflict
            // analysis can attribute an eventual Unsat to the precise
            // subset of assumptions it used.
            Lit next = kUndefLit;
            while (decisionLevel() <
                   static_cast<int>(assumptions.size())) {
                const Lit a = assumptions[decisionLevel()];
                if (value(a) == LBool::True) {
                    // Already implied: dummy level keeps the
                    // level <-> assumption-index correspondence.
                    trailLim.push_back(static_cast<int>(trail.size()));
                } else if (value(a) == LBool::False) {
                    analyzeFinal(a);
                    return SolveResult::Unsat;
                } else {
                    next = a;
                    break;
                }
            }
            if (next == kUndefLit) {
                next = pickBranchLit();
                if (next == kUndefLit) {
                    model.assign(assigns.begin(), assigns.end());
                    return SolveResult::Sat;
                }
            }
            ++statistics.decisions;
            trailLim.push_back(static_cast<int>(trail.size()));
            uncheckedEnqueue(next, Reason());
        }
    }
}

SolveResult
Solver::solve()
{
    return solve(LitVec{});
}

SolveResult
Solver::solve(const LitVec &assumps)
{
    assumptions = assumps;
    conflictCore.clear();
    conflictsAtCallStart = statistics.conflicts;
    if (!okay)
        return SolveResult::Unsat;
    for (Lit a : assumptions) {
        while (a.var() >= numVars())
            newVar();
    }
    if (propagate() != kRefUndef) {
        okay = false;
        return SolveResult::Unsat;
    }
    // Bounded variable elimination is a one-shot, whole-database
    // transformation: it is unsound to run once clauses have been
    // learnt or when assumptions may mention eliminated variables, so
    // it only runs on the first assumption-free call - and if an
    // assumption-based call arrives after it has run, the eliminated
    // clauses are restored first (an eliminated variable carries a
    // placeholder assignment that would silently satisfy or falsify
    // assumptions on it).
    if (!assumptions.empty() && !elimStack.empty()) {
        restoreEliminated();
        if (!okay)
            return SolveResult::Unsat;
    }
    if (cfg.preprocess && assumptions.empty() && !preprocessed &&
        learntClauses.empty()) {
        const Timer preprocess_timer;
        preprocessed = true;
        okay = preprocessEliminate();
        statistics.preprocessSeconds += preprocess_timer.seconds();
        if (!okay)
            return SolveResult::Unsat;
    }
    std::int64_t restart = 0;
    double geometric = static_cast<double>(cfg.restartBase);
    while (true) {
        const std::int64_t limit = cfg.lubyRestarts
            ? luby(restart) * cfg.restartBase
            : static_cast<std::int64_t>(geometric);
        const SolveResult result = search(limit);
        if (result != SolveResult::Unknown) {
            if (result == SolveResult::Sat) {
                // Extend the model over eliminated variables.
                for (auto it = elimStack.rbegin(); it != elimStack.rend();
                     ++it) {
                    const Var v = it->var;
                    model[v] = LBool::True;
                    for (std::uint32_t k = it->firstClause;
                         k < it->endClause; ++k) {
                        bool sat = false;
                        bool v_neg = false;
                        for (Lit l : elimClauses[k]) {
                            if (l.var() == v) {
                                v_neg = l.sign();
                                continue;
                            }
                            if (model[l.var()] == lboolOf(!l.sign())) {
                                sat = true;
                                break;
                            }
                        }
                        if (!sat)
                            model[v] = lboolOf(!v_neg);
                    }
                }
            }
            cancelUntil(0);
            return result;
        }
        if (cfg.conflictBudget >= 0 &&
            statistics.conflicts - conflictsAtCallStart >=
                cfg.conflictBudget) {
            cancelUntil(0);
            return SolveResult::Unknown;
        }
        if (stopFlag != nullptr &&
            stopFlag->load(std::memory_order_relaxed)) {
            cancelUntil(0);
            return SolveResult::Unknown;
        }
        ++statistics.restarts;
        ++restart;
        geometric *= 1.5;
    }
}

LBool
Solver::modelValue(Var v) const
{
    if (v < 0 || v >= static_cast<Var>(model.size()))
        return LBool::Undef;
    return model[v];
}

bool
Solver::preprocessEliminate()
{
    // Bounded variable elimination (NiVER-style): resolve away variables
    // whenever doing so does not grow the clause count.  Operates on the
    // root-level problem clauses before any learning has happened.
    //
    // The output - which variables go, in which order, what elimStack
    // saves, and which clauses come back attached in which order with
    // which literal order - is fixed by the rules below: a LIFO queue
    // seeded with every variable, every variable of a committed
    // resolvent pushed again, at most occ_limit occurrences per
    // polarity, a variable frozen as soon as its non-tautological
    // resolvents outnumber its clauses, and resolvents sorted and free
    // of duplicates.  The mechanism only has to be cheap: resolvents
    // are counted with literal marks before any is built, so a
    // rejected candidate allocates nothing.
    qbAssert(decisionLevel() == 0, "preprocess above root level");
    // Every assignment is a root-level fact here and none of their
    // reason clauses survive the rebuild below.  Drop the references
    // NOW: conflict analysis never expands level-0 reasons, but a kept
    // reference would make relocAll() resurrect the freed clause into
    // every future arena - an unbounded, unaccounted leak.
    for (const Lit l : trail)
        reasons[l.var()] = Reason();

    // The working clause set, back to back in one literal vector.  No
    // clause names a variable twice (addClause() drops tautologies and
    // duplicates), which is what makes the mark-based tautology test
    // below exact.
    ClauseList pool;
    auto add_root_reduced = [&](std::span<const Lit> lits) {
        for (const Lit l : lits) {
            if (value(l) == LBool::True) {
                pool.discard();
                return;
            }
            if (value(l) == LBool::Undef)
                pool.push(l);
        }
        pool.close();
    };
    std::size_t watchers = 0;
    for (const auto &list : watches)
        watchers += list.size();
    // learntClauses is empty, so the long-clause watch lists hold the
    // problem clauses' watchers and nothing else.
    qbAssert(learntClauses.empty() &&
                 watchers == 2 * problemClauses.size(),
             "preprocess: watchers beyond the problem clauses");
    for (const ClauseRef cr : problemClauses) {
        const Clause &c = ca[cr];
        add_root_reduced({c.begin(), c.end()});
    }
    // The whole pre-elimination database is discarded: clear the
    // watch lists and the arena wholesale.
    for (auto &list : watches)
        list.clear();
    ca.clear();
    problemClauses.clear();
    // Binary clauses live only in the watch lists: fold the canonical
    // direction of every pair into the working set and clear the
    // lists (survivors are re-filed by the re-add loop below).
    for (std::size_t idx = 0; idx < binWatches.size(); ++idx) {
        const Lit a = ~litFromIndex(idx);
        for (const BinWatcher &w : binWatches[idx]) {
            if (a < w.other)
                add_root_reduced(std::array{a, w.other});
        }
    }
    for (auto &list : binWatches)
        list.clear();

    // Occurrence lists per literal, singly linked through one flat
    // array, newest first.  Dead clauses are unlinked when their
    // variable is next considered.
    constexpr std::size_t occ_limit = 10;
    constexpr std::uint32_t kNoOcc = ~0u;
    struct Occurrence
    {
        std::uint32_t clause;
        std::uint32_t next;
    };
    const auto num_clauses = static_cast<std::uint32_t>(pool.size());
    std::vector<char> dead(num_clauses, 0);
    std::vector<Occurrence> occs;
    std::vector<std::uint32_t> head(watches.size(), kNoOcc);
    auto index_clause = [&](std::uint32_t i) {
        for (const Lit l : pool[i]) {
            occs.push_back({i, head[l.index()]});
            head[l.index()] = static_cast<std::uint32_t>(occs.size() - 1);
        }
    };
    for (std::uint32_t i = 0; i < num_clauses; ++i)
        index_clause(i);
    // The live clauses containing @p l into @p out, ascending; false
    // (and @p out incomplete) once there are more than occ_limit.
    auto live_occurrences = [&](Lit l, std::vector<std::uint32_t> &out) {
        out.clear();
        for (std::uint32_t *link = &head[l.index()]; *link != kNoOcc;) {
            Occurrence &o = occs[*link];
            if (dead[o.clause]) {
                *link = o.next;
                continue;
            }
            if (out.size() == occ_limit)
                return false;
            out.push_back(o.clause);
            link = &o.next;
        }
        std::reverse(out.begin(), out.end());
        return true;
    };

    std::vector<char> frozen(numVars(), 0);
    // Marks the literals of the positive antecedent, minus the pivot:
    // the resolvent with a negative one is a tautology exactly when
    // that clause holds the complement of a marked literal.
    std::vector<char> marked(watches.size(), 0);
    auto set_marks = [&](std::uint32_t i, Var pivot, char on) {
        for (const Lit l : pool[i])
            if (l.var() != pivot)
                marked[l.index()] = on;
    };
    auto tautology = [&](std::uint32_t i) {
        for (const Lit l : pool[i])
            if (marked[(~l).index()])
                return true;
        return false;
    };
    std::vector<std::uint32_t> pos, neg;
    // Whether more than @p bound of the resolvents on @p pivot between
    // pos and neg are non-tautological; stops counting at bound + 1.
    auto resolvents_exceed = [&](Var pivot, std::size_t bound) {
        std::size_t count = 0;
        for (const std::uint32_t pi : pos) {
            set_marks(pi, pivot, 1);
            for (const std::uint32_t ni : neg) {
                if (!tautology(ni) && ++count > bound)
                    break;
            }
            set_marks(pi, pivot, 0);
            if (count > bound)
                return true;
        }
        return false;
    };
    LitVec resolvent;
    std::vector<Var> queue(numVars());
    for (Var v = 0; v < numVars(); ++v)
        queue[v] = v;
    while (!queue.empty()) {
        const Var v = queue.back();
        queue.pop_back();
        if (frozen[v] || assigns[v] != LBool::Undef)
            continue;
        if (!live_occurrences(mkLit(v), pos) ||
            !live_occurrences(~mkLit(v), neg))
            continue;
        if (pos.empty() && neg.empty())
            continue;
        // NiVER: v goes only if that does not grow the clause count.
        // Counting is needed only when not every pair fits the bound.
        const std::size_t bound = pos.size() + neg.size();
        if (pos.size() * neg.size() > bound &&
            resolvents_exceed(v, bound)) {
            frozen[v] = 1;
            continue;
        }
        // Commit: remember v's clauses for model reconstruction, then
        // build the resolvents in (positive, negative) order.
        const auto first_saved =
            static_cast<std::uint32_t>(elimClauses.size());
        for (const auto *list : {&pos, &neg}) {
            for (const std::uint32_t i : *list) {
                elimClauses.add(pool[i]);
                dead[i] = 1;
            }
        }
        elimStack.push_back(
            {v, first_saved,
             static_cast<std::uint32_t>(elimClauses.size())});
        for (const std::uint32_t pi : pos) {
            set_marks(pi, v, 1);
            for (const std::uint32_t ni : neg) {
                if (tautology(ni))
                    continue;
                resolvent.clear();
                for (const Lit l : pool[pi])
                    if (l.var() != v)
                        resolvent.push_back(l);
                for (const Lit l : pool[ni])
                    if (l.var() != v && !marked[l.index()])
                        resolvent.push_back(l);
                std::sort(resolvent.begin(), resolvent.end());
                pool.add(resolvent);
                dead.push_back(0);
                index_clause(static_cast<std::uint32_t>(pool.size() - 1));
                // Touched variables become candidates again.
                for (const Lit l : resolvent)
                    queue.push_back(l.var());
            }
            set_marks(pi, v, 0);
        }
        assigns[v] = LBool::True; // block decisions on v
        levels[v] = 0;
        ++statistics.eliminatedVars;
    }

    // Re-add the surviving clauses through the normal path, onto the
    // empty arena and watch lists.
    for (std::uint32_t i = 0; i < pool.size(); ++i) {
        if (dead[i])
            continue;
        const auto c = pool[i];
        if (c.empty())
            return false;
        if (c.size() == 1) {
            if (value(c[0]) == LBool::False)
                return false;
            if (value(c[0]) == LBool::Undef)
                uncheckedEnqueue(c[0], Reason());
            continue;
        }
        if (c.size() == 2) {
            attachBinary(c[0], c[1], /*learnt=*/false);
            continue;
        }
        const ClauseRef cl = ca.alloc(c, /*learnt=*/false, /*lbd=*/0);
        problemClauses.push_back(cl);
        attachClause(cl);
    }
    notePeaks();
    return propagate() == kRefUndef;
}

void
Solver::relocAll(ClauseAllocator &to)
{
    // Patch every live reference through the forwarding words: watcher
    // lists first (order and blockers preserved verbatim), then the
    // reasons of all assigned variables (root-level assignments keep
    // their reason clauses forever; reduceDb never frees locked
    // clauses, so every such reference is live), then the
    // clause lists themselves.
    for (auto &list : watches)
        for (Watcher &w : list)
            w.cref = ca.reloc(w.cref, to);
    // Binary watchers carry literals, not arena references - nothing
    // to patch there, and binary reason words survive GC untouched.
    for (Var v = 0; v < numVars(); ++v) {
        if (assigns[v] != LBool::Undef && reasons[v].isClause())
            reasons[v] = Reason::clause(
                ca.reloc(reasons[v].clauseRef(), to));
    }
    for (ClauseRef &cr : problemClauses)
        cr = ca.reloc(cr, to);
    for (ClauseRef &cr : learntClauses)
        cr = ca.reloc(cr, to);
}

void
Solver::garbageCollect()
{
    ClauseAllocator to;
    to.reserveWords(ca.words() - ca.wasted());
    relocAll(to);
    ++statistics.gcRuns;
    statistics.gcWordsReclaimed +=
        static_cast<std::int64_t>(ca.words() - to.words());
    ca = std::move(to);
}

void
Solver::maybeGarbageCollect()
{
    // The MiniSat threshold: compact once a fifth of the arena is
    // garbage.  Cheaper than malloc/free per clause ever was, and the
    // copy restores allocation order = traversal order.
    if (ca.wasted() > ca.words() / 5)
        garbageCollect();
}

SolveResult
solveCnf(const Cnf &cnf, SolverConfig config, SolverStats *stats_out)
{
    Solver solver(config);
    solver.addCnf(cnf);
    const SolveResult result = solver.solve();
    if (stats_out)
        *stats_out = solver.stats();
    return result;
}

} // namespace qb::sat
