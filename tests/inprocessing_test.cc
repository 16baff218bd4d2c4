/**
 * @file
 * Tests for the arena clause allocator, the relocating garbage
 * collector and the query-boundary inprocessing passes (vivification
 * and backward subsumption).
 *
 * Built as the ctest-labelled `inprocessing` group: the ASan/TSan CI
 * jobs run it explicitly so GC relocation and the in-place clause
 * edits are exercised under both sanitizers.  Coverage follows the
 * reduceDb/GC interaction contract: locked (reason) clauses survive
 * relocation with valid references, inprocessing never changes
 * verdicts, and a
 * solver that GCs mid-session returns identical verdicts AND
 * counterexamples under --jobs 1 and --jobs N.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "circuits/qbr_text.h"
#include "core/engine.h"
#include "core/report.h"
#include "ir/circuit.h"
#include "lang/elaborate.h"
#include "sat/cnf.h"
#include "sat/solver.h"
#include "support/rng.h"

namespace qb::sat {
namespace {

/** Brute-force satisfiability over at most 20 variables. */
bool
bruteForceSat(const Cnf &cnf)
{
    const Var n = cnf.numVars();
    if (cnf.trivialConflict())
        return false;
    for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
        std::vector<LBool> assign(n);
        for (Var v = 0; v < n; ++v)
            assign[v] = lboolOf((bits >> v) & 1);
        if (cnf.satisfiedBy(assign))
            return true;
    }
    return false;
}

bool
bruteForceSatWithAssumptions(const Cnf &cnf, const LitVec &assumptions)
{
    Cnf with = cnf;
    for (Lit a : assumptions)
        with.addClause({a});
    return bruteForceSat(with);
}

Cnf
randomCnf(Rng &rng, Var num_vars, std::size_t num_clauses,
          int clause_len)
{
    Cnf cnf;
    cnf.ensureVars(num_vars);
    for (std::size_t i = 0; i < num_clauses; ++i) {
        LitVec clause;
        for (int j = 0; j < clause_len; ++j) {
            const Var v =
                static_cast<Var>(rng.nextBelow(num_vars));
            clause.push_back(mkLit(v, rng.nextBool()));
        }
        cnf.addClause(clause);
    }
    return cnf;
}

/** Pigeonhole principle PHP(holes+1, holes): hard, UNSAT. */
Cnf
pigeonhole(int holes)
{
    const int pigeons = holes + 1;
    Cnf cnf;
    const auto var = [holes](int p, int h) {
        return static_cast<Var>(p * holes + h);
    };
    for (int p = 0; p < pigeons; ++p) {
        LitVec clause;
        for (int h = 0; h < holes; ++h)
            clause.push_back(mkLit(var(p, h)));
        cnf.addClause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                cnf.addClause(
                    {~mkLit(var(p1, h)), ~mkLit(var(p2, h))});
    return cnf;
}

TEST(ClauseGc, LockedReasonsSurviveRelocation)
{
    // Root-level propagation chains leave clause reasons on the trail
    // forever; a GC must relocate them and patch reasons[] so later
    // conflict analysis walks valid references.
    Solver s;
    // Extra clauses so relocation moves more than just the chain.
    EXPECT_TRUE(s.addClause({mkLit(3), mkLit(4), mkLit(5)}));
    EXPECT_TRUE(s.addClause({mkLit(4), mkLit(5), mkLit(6)}));
    // Implication chain x0 -> x1 -> x2, then the unit that fires it:
    // x1 and x2 get clause reasons at the root (locked clauses).
    EXPECT_TRUE(s.addClause({~mkLit(0), mkLit(1)}));
    EXPECT_TRUE(s.addClause({~mkLit(1), mkLit(2)}));
    EXPECT_TRUE(s.addClause({mkLit(0)}));
    s.garbageCollect();
    EXPECT_EQ(1, s.stats().gcRuns);
    // The relocated reasons must still support final-conflict
    // analysis: assuming ~x2 contradicts the root implication.
    EXPECT_EQ(SolveResult::Unsat, s.solve({~mkLit(2)}));
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_EQ(LBool::True, s.modelValue(0));
    EXPECT_EQ(LBool::True, s.modelValue(1));
    EXPECT_EQ(LBool::True, s.modelValue(2));
}

TEST(ClauseGc, AutomaticGcTriggersUnderReduction)
{
    // A tiny learnt limit forces frequent reduceDb() on a hard
    // instance; the freed clauses must eventually trip the 20%-waste
    // GC threshold without help.
    SolverConfig cfg;
    cfg.learntLimitBase = 20;
    Solver s(cfg);
    s.addCnf(pigeonhole(7));
    EXPECT_EQ(SolveResult::Unsat, s.solve());
    EXPECT_GT(s.stats().removedClauses, 0);
    EXPECT_GT(s.stats().gcRuns, 0);
    EXPECT_GT(s.stats().gcWordsReclaimed, 0);
    EXPECT_GT(s.stats().arenaPeakWords, 0);
}

class InprocessingProperty : public ::testing::TestWithParam<int>
{};

TEST_P(InprocessingProperty, GcMidSessionKeepsIncrementalVerdicts)
{
    // Incremental rounds against one solver with reduction pressure,
    // an explicit GC and an inprocessing pass between rounds: every
    // verdict must match brute force, and models must be genuine.
    Rng rng(GetParam() + 91000);
    const Cnf cnf = randomCnf(rng, 8, 30, 3);
    SolverConfig cfg;
    cfg.learntLimitBase = 10;
    Solver solver(cfg);
    solver.addCnf(cnf);
    for (int round = 0; round < 4; ++round) {
        LitVec assumptions;
        for (Var v = 0; v < 8; ++v) {
            const auto choice = rng.nextBelow(4);
            if (choice == 0)
                assumptions.push_back(mkLit(v));
            else if (choice == 1)
                assumptions.push_back(mkLit(v, true));
        }
        const bool expected =
            bruteForceSatWithAssumptions(cnf, assumptions);
        EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
                  solver.solve(assumptions))
            << "round " << round;
        if (solver.solve() != SolveResult::Sat)
            break; // base formula unsat: solver is done
        solver.shrinkLearnts(3);
        if (round % 2 == 0)
            solver.garbageCollect();
        else
            solver.inprocess();
    }
}

TEST_P(InprocessingProperty, InprocessNeverChangesVerdicts)
{
    // Learn (full solve), inprocess, then re-decide under random
    // assumptions: vivification and subsumption must only shrink the
    // database, never change any answer.
    Rng rng(GetParam() + 17000);
    const Cnf cnf = randomCnf(rng, 8, 34, 3);
    Solver solver;
    solver.addCnf(cnf);
    const bool base = bruteForceSat(cnf);
    EXPECT_EQ(base ? SolveResult::Sat : SolveResult::Unsat,
              solver.solve());
    if (!base)
        return;
    EXPECT_TRUE(solver.inprocess());
    for (int round = 0; round < 3; ++round) {
        LitVec assumptions;
        for (Var v = 0; v < 8; ++v) {
            const auto choice = rng.nextBelow(4);
            if (choice == 0)
                assumptions.push_back(mkLit(v));
            else if (choice == 1)
                assumptions.push_back(mkLit(v, true));
        }
        const bool expected =
            bruteForceSatWithAssumptions(cnf, assumptions);
        EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
                  solver.solve(assumptions))
            << "round " << round;
        solver.inprocess();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InprocessingProperty,
                         ::testing::Range(0, 25));

TEST(Inprocessing, VivificationShortensPaddedClauses)
{
    // x0 is forced at the root AFTER a clause padded with ~x0 exists;
    // inprocessing must strip the dead literal.
    Solver s;
    EXPECT_TRUE(s.addClause({mkLit(0), mkLit(1), mkLit(2)}));
    EXPECT_TRUE(s.addClause({mkLit(1), mkLit(3), mkLit(4)}));
    EXPECT_TRUE(s.addClause({~mkLit(0), mkLit(3), mkLit(4)}));
    EXPECT_EQ(SolveResult::Sat, s.solve());
    // Now force x0 at the root: the padded clause's ~x0 is dead.
    // Either the binary-graph root cleaning strips it (counted as a
    // strengthening; the remainder re-files as a real binary) or,
    // with that pass off, vivification strips it.
    EXPECT_TRUE(s.addClause({mkLit(0)}));
    EXPECT_TRUE(s.inprocess());
    EXPECT_GE(s.stats().vivifiedClauses + s.stats().removedClauses +
                  s.stats().strengthenedClauses,
              1)
        << "the clause must be shortened or dropped as satisfied";
    EXPECT_EQ(SolveResult::Sat, s.solve());
}

TEST(Inprocessing, SubsumptionRemovesAndStrengthens)
{
    Solver s;
    // {x0, x1} subsumes {x0, x1, x2} and self-subsumes
    // {~x0, x1, x3} down to {x1, x3}.
    EXPECT_TRUE(s.addClause({mkLit(0), mkLit(1)}));
    EXPECT_TRUE(s.addClause({mkLit(0), mkLit(1), mkLit(2)}));
    EXPECT_TRUE(s.addClause({~mkLit(0), mkLit(1), mkLit(3)}));
    EXPECT_TRUE(s.inprocess());
    EXPECT_EQ(1, s.stats().subsumedClauses);
    EXPECT_EQ(1, s.stats().strengthenedClauses);
    // Semantics unchanged: ~x1 now implies x3 via the strengthened
    // clause together with {x0, x1} - check the implication holds.
    EXPECT_EQ(SolveResult::Unsat,
              s.solve({~mkLit(1), ~mkLit(3)}));
    EXPECT_EQ(SolveResult::Sat, s.solve());
}

TEST(Inprocessing, CanBeDisabledByConfig)
{
    SolverConfig cfg;
    cfg.inprocessing = false;
    Solver s(cfg);
    EXPECT_TRUE(s.addClause({mkLit(0), mkLit(1)}));
    EXPECT_TRUE(s.addClause({mkLit(0), mkLit(1), mkLit(2)}));
    EXPECT_TRUE(s.inprocess());
    EXPECT_EQ(0, s.stats().inprocessRuns);
    EXPECT_EQ(0, s.stats().subsumedClauses);
}

TEST(ClauseGc, BinaryWatchListsSurviveRelocation)
{
    // Binary clauses live in the arena but are watched through the
    // specialized binary lists; a GC must patch those watchers too,
    // and root-level BINARY reasons must still support final-conflict
    // analysis afterwards.
    // Positive initial phase: the all-positive filler clauses are
    // satisfied by every decision, so propagation stays on the
    // binary path and the zero-arena-reads assertion below is exact.
    SolverConfig cfg;
    cfg.initialPhaseTrue = true;
    Solver s(cfg);
    // Binary implication chain x0 -> x1 -> x2 (binary reasons), plus
    // long clauses so relocation moves a mixed population.
    EXPECT_TRUE(s.addClause({mkLit(3), mkLit(4), mkLit(5)}));
    EXPECT_TRUE(s.addClause({~mkLit(0), mkLit(1)}));
    EXPECT_TRUE(s.addClause({~mkLit(1), mkLit(2)}));
    EXPECT_TRUE(s.addClause({mkLit(4), mkLit(5), mkLit(6)}));
    EXPECT_TRUE(s.addClause({mkLit(0)}));
    s.garbageCollect();
    EXPECT_EQ(1, s.stats().gcRuns);
    // Propagation through the RELOCATED binary watchers, still with
    // zero arena reads.
    EXPECT_EQ(SolveResult::Unsat, s.solve({~mkLit(2)}));
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_EQ(LBool::True, s.modelValue(2));
    EXPECT_EQ(0, s.stats().propagationArenaReads);
}

TEST_P(InprocessingProperty, GcKeepsBinaryHeavyVerdicts)
{
    // Random binary-heavy formulas under reduction pressure,
    // explicit GCs and inprocessing between incremental rounds: the
    // non-empty binary watch lists must survive every relocation
    // with verdicts identical to brute force.
    Rng rng(GetParam() + 53000);
    Cnf cnf;
    cnf.ensureVars(8);
    for (int i = 0; i < 20; ++i) {
        const Var a = static_cast<Var>(rng.nextBelow(8));
        Var b = static_cast<Var>(rng.nextBelow(8));
        while (b == a)
            b = static_cast<Var>(rng.nextBelow(8));
        cnf.addClause(
            {mkLit(a, rng.nextBool()), mkLit(b, rng.nextBool())});
    }
    for (int i = 0; i < 8; ++i) {
        LitVec c;
        for (int j = 0; j < 3; ++j)
            c.push_back(mkLit(static_cast<Var>(rng.nextBelow(8)),
                              rng.nextBool()));
        cnf.addClause(c);
    }
    SolverConfig cfg;
    cfg.learntLimitBase = 10;
    Solver solver(cfg);
    solver.addCnf(cnf);
    for (int round = 0; round < 4; ++round) {
        LitVec assumptions;
        for (Var v = 0; v < 8; ++v) {
            const auto choice = rng.nextBelow(4);
            if (choice == 0)
                assumptions.push_back(mkLit(v));
            else if (choice == 1)
                assumptions.push_back(mkLit(v, true));
        }
        const bool expected =
            bruteForceSatWithAssumptions(cnf, assumptions);
        EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
                  solver.solve(assumptions))
            << "round " << round;
        if (solver.solve() != SolveResult::Sat)
            break;
        solver.shrinkLearnts(3);
        if (round % 2 == 0)
            solver.garbageCollect();
        else
            solver.inprocess();
    }
}

TEST_P(InprocessingProperty, OtfStrengtheningAgreesWithBruteForce)
{
    // The learn-time strengthenings must keep the database equivalent
    // round after round: decide random assumption queries against
    // brute force on one long-lived solver, interleaved with the
    // epoch shrink + inprocessing the engine performs - exactly the
    // environment the in-place arena edits have to survive.  The
    // seeds collectively exercise the pass (asserted below).
    Rng rng(GetParam() + 67000);
    const Cnf cnf = randomCnf(rng, 9, 40, 3);
    Solver solver;
    solver.addCnf(cnf);
    const bool base = bruteForceSat(cnf);
    EXPECT_EQ(base ? SolveResult::Sat : SolveResult::Unsat,
              solver.solve());
    for (int round = 0; round < 3 && base; ++round) {
        LitVec assumptions;
        for (Var v = 0; v < 9; ++v) {
            const auto choice = rng.nextBelow(4);
            if (choice == 0)
                assumptions.push_back(mkLit(v));
            else if (choice == 1)
                assumptions.push_back(mkLit(v, true));
        }
        const bool expected =
            bruteForceSatWithAssumptions(cnf, assumptions);
        EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
                  solver.solve(assumptions))
            << "round " << round;
        solver.shrinkLearnts(3);
        solver.inprocess();
    }
}

TEST_P(InprocessingProperty, DeferredOtfAgreesWithBruteForce)
{
    // PR 6: candidates the mid-search pass must skip (deep assertion
    // levels, locked antecedents) are queued and applied at the next
    // root boundary.  A solver with deferral on and one with it off
    // must agree with brute force on every incremental query - the
    // deferred in-place shrink edits live arena clauses at level 0.
    Rng rng(GetParam() + 91000);
    const Cnf cnf = randomCnf(rng, 9, 38, 3);
    SolverConfig deferred;
    deferred.otfDefer = true;
    SolverConfig immediate;
    immediate.otfDefer = false;
    Solver with(deferred);
    Solver without(immediate);
    with.addCnf(cnf);
    without.addCnf(cnf);
    const bool base = bruteForceSat(cnf);
    EXPECT_EQ(base ? SolveResult::Sat : SolveResult::Unsat,
              with.solve());
    EXPECT_EQ(base ? SolveResult::Sat : SolveResult::Unsat,
              without.solve());
    for (int round = 0; round < 3 && base; ++round) {
        LitVec assumptions;
        for (Var v = 0; v < 9; ++v) {
            const auto choice = rng.nextBelow(4);
            if (choice == 0)
                assumptions.push_back(mkLit(v));
            else if (choice == 1)
                assumptions.push_back(mkLit(v, true));
        }
        const bool expected =
            bruteForceSatWithAssumptions(cnf, assumptions);
        const auto verdict =
            expected ? SolveResult::Sat : SolveResult::Unsat;
        EXPECT_EQ(verdict, with.solve(assumptions))
            << "deferred, round " << round;
        EXPECT_EQ(verdict, without.solve(assumptions))
            << "immediate, round " << round;
        // Same epoch maintenance the engine performs: deferred
        // candidates must survive (or be purged across) both.
        with.shrinkLearnts(3);
        with.inprocess();
        without.shrinkLearnts(3);
        without.inprocess();
    }
}

TEST(Inprocessing, DeferredOtfAppliesAtRootBoundaries)
{
    // On a conflict-heavy instance the mid-search pass skips real
    // candidates and the root-boundary drain applies them: both
    // counters must move, and the verdict is unaffected.
    Solver deferred; // otfDefer defaults on
    deferred.addCnf(pigeonhole(7));
    EXPECT_EQ(SolveResult::Unsat, deferred.solve());
    EXPECT_GT(deferred.stats().otfSkipped, 0);
    EXPECT_GT(deferred.stats().otfDeferredApplied, 0);
    // With deferral off the skip path stays a pure skip.
    SolverConfig config;
    config.otfDefer = false;
    Solver immediate(config);
    immediate.addCnf(pigeonhole(7));
    EXPECT_EQ(SolveResult::Unsat, immediate.solve());
    EXPECT_EQ(0, immediate.stats().otfDeferredApplied);
}

TEST(Inprocessing, AddClauseAfterRestoreChecksOkay)
{
    // The re-entrant restoreEliminated() inside addClause() can latch
    // root unsatisfiability; addClause() must then report failure
    // instead of attaching to a broken solver.  Preprocess first so
    // the elimination stack is populated.
    SolverConfig cfg = SolverConfig::simplify();
    Solver s(cfg);
    Rng rng(4711);
    const Cnf cnf = randomCnf(rng, 10, 28, 3);
    s.addCnf(cnf);
    if (s.solve() != SolveResult::Sat)
        return; // nothing eliminated on unsat latch
    // Force contradictory units: the second addClause() triggers the
    // restore + okay audit path regardless of what was eliminated.
    const bool first = s.addClause({mkLit(0)});
    const bool second = s.addClause({~mkLit(0)});
    EXPECT_FALSE(first && second);
    EXPECT_EQ(SolveResult::Unsat, s.solve());
    // Anything added after the latch must be refused outright.
    EXPECT_FALSE(s.addClause({mkLit(1), mkLit(2)}));
}

TEST(BinaryGraph, GadgetsFireEveryPass)
{
    // One formula with a disjoint gadget per binary-graph pass, so a
    // single assumption-free solve must move all four counters:
    //   SCC cycle      a -> b -> c -> a        (merges b and c into a)
    //   transitive     d -> e -> f  plus d -> f (one redundant edge)
    //   failed literal g -> h, g -> ~h          (probing learns ~g)
    //   hyper-binary   p -> q, p -> r, (~q|~r|x) (resolvent ~p | x)
    const Lit a = mkLit(0), b = mkLit(1), c = mkLit(2);
    const Lit d = mkLit(3), e = mkLit(4), f = mkLit(5);
    const Lit g = mkLit(6), h = mkLit(7);
    const Lit p = mkLit(8), q = mkLit(9), r = mkLit(10),
              x = mkLit(11);
    Cnf cnf;
    cnf.ensureVars(12);
    cnf.addClause({~a, b});
    cnf.addClause({~b, c});
    cnf.addClause({~c, a});
    cnf.addClause({~d, e});
    cnf.addClause({~e, f});
    cnf.addClause({~d, f});
    cnf.addClause({~g, h});
    cnf.addClause({~g, ~h});
    cnf.addClause({~p, q});
    cnf.addClause({~p, r});
    cnf.addClause({~q, ~r, x});
    Solver solver;
    solver.addCnf(cnf);
    ASSERT_EQ(SolveResult::Sat, solver.solve());
    EXPECT_EQ(2, solver.stats().sccMergedVars);
    EXPECT_GE(solver.stats().probedFailed, 1);
    EXPECT_GE(solver.stats().hyperBinaries, 1);
    EXPECT_GE(solver.stats().transitiveReduced, 1);
    // The model must be reported over the ORIGINAL variables: the
    // merged b and c were substituted away inside the solver, yet the
    // reconstructed model still has to satisfy every input clause.
    std::vector<LBool> model(12);
    for (Var v = 0; v < 12; ++v)
        model[static_cast<std::size_t>(v)] = solver.modelValue(v);
    EXPECT_TRUE(cnf.satisfiedBy(model));
    EXPECT_EQ(solver.modelValue(0), solver.modelValue(1));
    EXPECT_EQ(solver.modelValue(0), solver.modelValue(2));
    EXPECT_EQ(LBool::False, solver.modelValue(6)); // the failed g
}

TEST(BinaryGraph, UnsatSubstitutionStillRetiresMergedVariables)
{
    // The binaries make x0 -> ~x1 -> x2 -> x0 and x0 <-> ~x3 cycles,
    // so x1, x2 and x3 all merge into x0's class.  Rewriting the long
    // clauses through that substitution turns (~x0 | ~x2 | x3) into
    // the unit ~x0, and the rewrite proves the formula UNSAT before
    // it has visited every clause.  It must still finish: no merged
    // variable may stay behind, in an unsatisfiable solver too.
    auto pos = [](Var v) { return mkLit(v); };
    auto neg = [](Var v) { return ~mkLit(v); };
    Cnf cnf;
    cnf.ensureVars(7);
    cnf.addClause({neg(2), neg(3), neg(6)});
    cnf.addClause({pos(2), neg(4), neg(6)});
    cnf.addClause({neg(1), neg(3), pos(6)});
    cnf.addClause({neg(0), neg(1)});
    cnf.addClause({pos(1), pos(2)});
    cnf.addClause({pos(0), neg(2)});
    cnf.addClause({pos(0), pos(3)});
    cnf.addClause({neg(1), pos(2), pos(4)});
    cnf.addClause({neg(0), neg(3)});
    cnf.addClause({neg(0), neg(2), pos(3)});
    Solver solver(SolverConfig::simplify());
    solver.addCnf(cnf);
    EXPECT_EQ(SolveResult::Unsat, solver.solve());
    EXPECT_EQ(3, solver.stats().sccMergedVars);
    solver.checkInvariants();
}

TEST_P(InprocessingProperty, BinaryAnalysisAgreesWithBruteForce)
{
    // Random binary-heavy formulas with the graph passes on: verdicts
    // must match brute force round for round, and every Sat round's
    // reconstructed model must satisfy the ORIGINAL clauses - the
    // strongest observable statement of substitution soundness.
    Rng rng(GetParam() + 91000);
    Cnf cnf;
    cnf.ensureVars(9);
    for (int i = 0; i < 26; ++i) {
        const Var u = static_cast<Var>(rng.nextBelow(9));
        Var w = static_cast<Var>(rng.nextBelow(9));
        while (w == u)
            w = static_cast<Var>(rng.nextBelow(9));
        cnf.addClause(
            {mkLit(u, rng.nextBool()), mkLit(w, rng.nextBool())});
    }
    for (int i = 0; i < 6; ++i) {
        LitVec clause;
        for (int j = 0; j < 3; ++j)
            clause.push_back(mkLit(
                static_cast<Var>(rng.nextBelow(9)), rng.nextBool()));
        cnf.addClause(clause);
    }
    Solver solver;
    solver.addCnf(cnf);
    for (int round = 0; round < 4; ++round) {
        LitVec assumptions;
        for (Var v = 0; v < 9; ++v) {
            const auto choice = rng.nextBelow(5);
            if (choice == 0)
                assumptions.push_back(mkLit(v));
            else if (choice == 1)
                assumptions.push_back(mkLit(v, true));
        }
        const bool expected =
            bruteForceSatWithAssumptions(cnf, assumptions);
        const SolveResult got = solver.solve(assumptions);
        ASSERT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
                  got)
            << "round " << round;
        if (got == SolveResult::Sat) {
            std::vector<LBool> model(9);
            for (Var v = 0; v < 9; ++v)
                model[static_cast<std::size_t>(v)] =
                    solver.modelValue(v);
            EXPECT_TRUE(cnf.satisfiedBy(model))
                << "round " << round;
            for (const Lit l : assumptions)
                EXPECT_NE(LBool::False,
                          l.sign() ? lboolNeg(model[l.var()])
                                   : model[l.var()])
                    << "assumption violated in round " << round;
        }
        // The assumption-free solve between rounds is what runs the
        // root binary-graph pass (assumption calls skip it).
        if (solver.solve() != SolveResult::Sat)
            break;
        solver.inprocess();
    }
}

TEST_P(InprocessingProperty, BinaryAnalysisComposesWithImportsAndGc)
{
    // Equivalence substitution against clauses added between rounds
    // and relocating GC: an added clause may name variables this
    // solver has merged away (addClause() routes them through
    // representativeOf), and the relocation sweep must keep binary
    // reasons - which carry literals, not arena refs - intact across
    // rounds.
    Rng rng(GetParam() + 97000);
    Cnf cnf;
    cnf.ensureVars(10);
    std::vector<LitVec> pool;
    for (int i = 0; i < 24; ++i) {
        const Var u = static_cast<Var>(rng.nextBelow(10));
        Var w = static_cast<Var>(rng.nextBelow(10));
        while (w == u)
            w = static_cast<Var>(rng.nextBelow(10));
        pool.push_back(
            {mkLit(u, rng.nextBool()), mkLit(w, rng.nextBool())});
    }
    for (int i = 0; i < 8; ++i) {
        LitVec clause;
        for (int j = 0; j < 3; ++j)
            clause.push_back(mkLit(
                static_cast<Var>(rng.nextBelow(10)), rng.nextBool()));
        pool.push_back(clause);
    }
    for (const LitVec &clause : pool)
        cnf.addClause(clause);
    SolverConfig cfg;
    cfg.learntLimitBase = 10;
    Solver solver(cfg);
    solver.addCnf(cnf);
    for (int round = 0; round < 4; ++round) {
        // The assumption-free solve runs the root graph pass (merging
        // variables on binary-heavy formulas); skip out once Unsat.
        if (solver.solve() != SolveResult::Sat)
            break;
        // Add a consequence: a widened copy of a real clause is
        // subsumed by it, so the verdicts below stay those of cnf,
        // and its literals may name variables this solver has merged
        // away.
        LitVec implied =
            pool[rng.nextBelow(static_cast<std::uint32_t>(
                pool.size()))];
        implied.push_back(mkLit(
            static_cast<Var>(rng.nextBelow(10)), rng.nextBool()));
        solver.addClause(implied);
        LitVec assumptions;
        for (Var v = 0; v < 10; ++v) {
            const auto choice = rng.nextBelow(4);
            if (choice == 0)
                assumptions.push_back(mkLit(v));
            else if (choice == 1)
                assumptions.push_back(mkLit(v, true));
        }
        const bool expected =
            bruteForceSatWithAssumptions(cnf, assumptions);
        EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
                  solver.solve(assumptions))
            << "round " << round;
        solver.shrinkLearnts(3);
        if (round % 2 == 0)
            solver.garbageCollect();
        else
            solver.inprocess();
    }
}

TEST_P(InprocessingProperty, BinaryAnalysisComposesWithElimination)
{
    // The full preprocessing stack: root binary-graph pass, then
    // bounded variable elimination, then assumption rounds (which
    // restore eliminated variables).  Model reconstruction has to
    // unwind BOTH stacks - merges from eqStack, eliminations from
    // elimStack - and verdicts must still match brute force.
    Rng rng(GetParam() + 101000);
    Cnf cnf;
    cnf.ensureVars(10);
    for (int i = 0; i < 22; ++i) {
        const Var u = static_cast<Var>(rng.nextBelow(10));
        Var w = static_cast<Var>(rng.nextBelow(10));
        while (w == u)
            w = static_cast<Var>(rng.nextBelow(10));
        cnf.addClause(
            {mkLit(u, rng.nextBool()), mkLit(w, rng.nextBool())});
    }
    for (int i = 0; i < 6; ++i) {
        LitVec clause;
        for (int j = 0; j < 3; ++j)
            clause.push_back(mkLit(
                static_cast<Var>(rng.nextBelow(10)), rng.nextBool()));
        cnf.addClause(clause);
    }
    SolverConfig cfg = SolverConfig::simplify();
    Solver solver(cfg);
    solver.addCnf(cnf);
    const bool sat0 = bruteForceSat(cnf);
    ASSERT_EQ(sat0 ? SolveResult::Sat : SolveResult::Unsat,
              solver.solve());
    if (!sat0)
        return;
    std::vector<LBool> model(10);
    for (Var v = 0; v < 10; ++v)
        model[static_cast<std::size_t>(v)] = solver.modelValue(v);
    EXPECT_TRUE(cnf.satisfiedBy(model));
    for (int round = 0; round < 3; ++round) {
        LitVec assumptions;
        for (Var v = 0; v < 10; ++v) {
            const auto choice = rng.nextBelow(4);
            if (choice == 0)
                assumptions.push_back(mkLit(v));
            else if (choice == 1)
                assumptions.push_back(mkLit(v, true));
        }
        const bool expected =
            bruteForceSatWithAssumptions(cnf, assumptions);
        EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
                  solver.solve(assumptions))
            << "round " << round;
    }
}

TEST_P(InprocessingProperty, BinaryAnalysisOnOffVerdictsIdentical)
{
    // The acceptance contract at the solver level: the graph passes
    // are pure simplification, so an analysis-on solver and an
    // analysis-off solver walk the same formula to the same verdict
    // in every round.
    Rng rng(GetParam() + 103000);
    const Cnf cnf = randomCnf(rng, 9, 30, 2);
    SolverConfig off;
    off.binaryAnalysis = false;
    Solver with;
    Solver without(off);
    with.addCnf(cnf);
    without.addCnf(cnf);
    for (int round = 0; round < 4; ++round) {
        LitVec assumptions;
        for (Var v = 0; v < 9; ++v) {
            const auto choice = rng.nextBelow(4);
            if (choice == 0)
                assumptions.push_back(mkLit(v));
            else if (choice == 1)
                assumptions.push_back(mkLit(v, true));
        }
        EXPECT_EQ(without.solve(assumptions),
                  with.solve(assumptions))
            << "round " << round;
        with.solve();
        without.solve();
        with.inprocess();
        without.inprocess();
    }
    EXPECT_EQ(0, without.stats().sccMergedVars +
                     without.stats().probedFailed +
                     without.stats().hyperBinaries +
                     without.stats().transitiveReduced)
        << "analysis-off solver must not run any graph pass";
}

} // namespace
} // namespace qb::sat

namespace qb::core {
namespace {

TEST(EngineInprocessing, JobsDeterminismWithGcAndInprocessing)
{
    // The scheduler acceptance contract must hold under heavy
    // reduction pressure (GC runs mid-solve): --jobs 1 and --jobs N
    // give identical verdicts AND counterexamples.  Lane A's preset
    // does not preprocess, so its solvers search longest.
    const auto program =
        lang::elaborateSource(circuits::adderQbrSource(10));
    EngineOptions base =
        EngineOptions::singleLane(VerifierOptions::laneA());
    base.lane.solver.learntLimitBase = 16;
    EngineOptions serial = base;
    serial.jobs = 1;
    EngineOptions parallel = base;
    parallel.jobs = 4;
    const ProgramResult r1 = verifyAll(program, serial);
    const ProgramResult rn = verifyAll(program, parallel);
    ASSERT_EQ(r1.qubits.size(), rn.qubits.size());
    for (std::size_t i = 0; i < r1.qubits.size(); ++i) {
        EXPECT_EQ(r1.qubits[i].verdict, rn.qubits[i].verdict)
            << "qubit " << i;
        EXPECT_EQ(r1.qubits[i].failed, rn.qubits[i].failed)
            << "qubit " << i;
        EXPECT_EQ(r1.qubits[i].counterexample,
                  rn.qubits[i].counterexample)
            << "qubit " << i;
    }
    for (const QubitResult &r : r1.qubits)
        EXPECT_EQ(Verdict::Safe, r.verdict) << r.name;
}

TEST(EngineInprocessing, BinaryAnalysisOnOffIdenticalAcrossJobs)
{
    // The headline acceptance contract: with the binary-graph passes
    // on, verdicts AND counterexamples are bit-identical to the
    // passes-off run, at --jobs 1 and --jobs N alike.  The adder
    // program exercises the passes for real (its carry chain is where
    // SCC merging and transitive reduction actually fire).
    // Both lane presets: each runs the passes at every solver's entry.
    const auto program =
        lang::elaborateSource(circuits::adderQbrSource(8));
    for (const std::string lane : {"A", "B"}) {
        const EngineOptions base = EngineOptions::singleLane(
            lane == "A" ? VerifierOptions::laneA()
                        : VerifierOptions::laneB());
        std::vector<ProgramResult> results;
        for (const bool analysis : {true, false}) {
            for (const int jobs : {1, 4}) {
                EngineOptions options = base;
                options.binaryAnalysis = analysis;
                options.jobs = jobs;
                results.push_back(verifyAll(program, options));
            }
        }
        const ProgramResult &reference = results.front();
        for (std::size_t k = 1; k < results.size(); ++k) {
            ASSERT_EQ(reference.qubits.size(),
                      results[k].qubits.size());
            for (std::size_t i = 0; i < reference.qubits.size(); ++i) {
                EXPECT_EQ(reference.qubits[i].verdict,
                          results[k].qubits[i].verdict)
                    << "lane " << lane << " config " << k << " qubit "
                    << i;
                EXPECT_EQ(reference.qubits[i].failed,
                          results[k].qubits[i].failed)
                    << "lane " << lane << " config " << k << " qubit "
                    << i;
                EXPECT_EQ(reference.qubits[i].counterexample,
                          results[k].qubits[i].counterexample)
                    << "lane " << lane << " config " << k << " qubit "
                    << i;
            }
        }
        // The off runs must leave all four counters at zero: the
        // engine-level switch must reach either kind of lane.
        EXPECT_EQ(0, results[2].solverTotals.sccMergedVars +
                         results[2].solverTotals.probedFailed +
                         results[2].solverTotals.hyperBinaries +
                         results[2].solverTotals.transitiveReduced)
            << "lane " << lane;
    }
}

/**
 * Fuzz-style random programs - CNOT-heavy bodies (weight 4) of up to
 * 14 gates over up to eight inputs - most of them unsafe, so the
 * engine's counterexamples get compared for real.
 */
std::vector<lang::ElaboratedProgram>
unsafeProneRandomPrograms(std::uint64_t seed, int count)
{
    circuits::RandomQbrOptions shape;
    shape.maxQubits = 8;
    shape.maxBodyGates = 14;
    shape.cnotWeight = 4.0;
    Rng rng(seed);
    std::vector<lang::ElaboratedProgram> programs;
    for (int i = 0; i < count; ++i)
        programs.push_back(lang::elaborateSource(
            circuits::randomQbrSource(rng, shape)));
    return programs;
}

TEST(EngineInprocessing, UnsafeCounterexamplesIgnoreBinaryAnalysisAndJobs)
{
    // Counterexamples come from a replay solve, and the binary-graph
    // passes steer a solver's search: a replay that inherited the
    // engine's switch found other models with it on than off.  Over
    // unsafe random programs, for the default lane set and for lane
    // A, binary analysis on/off x --jobs 1/4 must agree on every
    // verdict, failed condition and counterexample.
    const auto programs = unsafeProneRandomPrograms(0xCE3, 400);
    for (const std::string lane : {"", "A"}) {
        std::vector<std::vector<QubitResult>> runs;
        for (const bool analysis : {true, false}) {
            for (const unsigned jobs : {1u, 4u}) {
                EngineOptions options = lane.empty()
                    ? EngineOptions{}
                    : EngineOptions::singleLane(VerifierOptions::laneA());
                options.binaryAnalysis = analysis;
                options.jobs = jobs;
                const auto scheduler = std::make_shared<Scheduler>(jobs);
                std::vector<QubitResult> qubits;
                for (const auto &program : programs) {
                    ProgramResult r = verifyAll(program, options, {},
                                                false, scheduler,
                                                nullptr);
                    for (QubitResult &q : r.qubits)
                        qubits.push_back(std::move(q));
                }
                runs.push_back(std::move(qubits));
            }
        }
        const std::vector<QubitResult> &reference = runs.front();
        std::size_t counterexamples = 0;
        for (const QubitResult &q : reference)
            counterexamples += q.counterexample.has_value() ? 1 : 0;
        EXPECT_GT(counterexamples, 250u) << "lane '" << lane << "'";
        for (std::size_t k = 1; k < runs.size(); ++k) {
            ASSERT_EQ(reference.size(), runs[k].size());
            for (std::size_t i = 0; i < reference.size(); ++i) {
                EXPECT_EQ(reference[i].verdict, runs[k][i].verdict)
                    << "lane '" << lane << "' config " << k
                    << " qubit " << i;
                EXPECT_EQ(reference[i].failed, runs[k][i].failed)
                    << "lane '" << lane << "' config " << k
                    << " qubit " << i;
                EXPECT_EQ(reference[i].counterexample,
                          runs[k][i].counterexample)
                    << "lane '" << lane << "' config " << k
                    << " qubit " << i;
            }
        }
    }
}

TEST(EngineDefaults, JobsOneAndFourBitIdentical)
{
    // The default lane set runs each condition as an unordered pool
    // task in its own solver; --jobs 1 and --jobs 4 must still agree
    // on every verdict, failed condition, counterexample and lane, on
    // safe adders and unsafe random programs alike.
    std::vector<lang::ElaboratedProgram> programs =
        unsafeProneRandomPrograms(0xDEF, 120);
    for (const std::uint32_t n : {6u, 10u})
        programs.push_back(
            lang::elaborateSource(circuits::adderQbrSource(n)));
    std::vector<QubitResult> runs[2];
    for (const unsigned jobs : {1u, 4u}) {
        EngineOptions options;
        options.jobs = jobs;
        for (const auto &program : programs)
            for (QubitResult &q : verifyAll(program, options).qubits)
                runs[jobs == 4].push_back(std::move(q));
    }
    ASSERT_EQ(runs[0].size(), runs[1].size());
    std::size_t safe = 0, counterexamples = 0;
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
        const QubitResult &one = runs[0][i];
        const QubitResult &four = runs[1][i];
        EXPECT_EQ(one.verdict, four.verdict) << "qubit " << i;
        EXPECT_EQ(one.failed, four.failed) << "qubit " << i;
        EXPECT_EQ(one.counterexample, four.counterexample)
            << "qubit " << i;
        EXPECT_EQ(one.lane, four.lane) << "qubit " << i;
        safe += one.verdict == Verdict::Safe ? 1 : 0;
        counterexamples += one.counterexample.has_value() ? 1 : 0;
    }
    // Both adders' dirty qubits (5 + 9) at least are safe.
    EXPECT_GE(safe, 14u);
    EXPECT_GT(counterexamples, 60u);
}

TEST(EngineInprocessing, BinaryHeavyMcxCountersReachReport)
{
    // The CI bench-smoke contract in unit-test form: the dressed mcx
    // program on the preprocessing lane must move the SCC and
    // transitive-reduction counters, and they must flow through
    // ProgramResult into the JSON report.
    const auto program = lang::elaborateSource(
        circuits::binaryHeavyMcxQbrSource(20));
    EngineOptions options =
        EngineOptions::singleLane(VerifierOptions::laneB());
    const ProgramResult result = verifyAll(program, options);
    for (const QubitResult &r : result.qubits)
        EXPECT_EQ(Verdict::Safe, r.verdict) << r.name;
    EXPECT_GE(result.solverTotals.sccMergedVars, 1);
    EXPECT_GE(result.solverTotals.transitiveReduced, 1);
    const std::string json = toJson(result, "binary-heavy-mcx");
    EXPECT_NE(std::string::npos, json.find("\"scc_merged_vars\": "));
    EXPECT_NE(std::string::npos, json.find("\"probed_failed\": "));
    EXPECT_NE(std::string::npos, json.find("\"hyper_binaries\": "));
    EXPECT_NE(std::string::npos,
              json.find("\"transitive_reduced\": "));
}

TEST(EngineInprocessing, SolverTotalsReachJsonReport)
{
    // The aggregated solver counters must flow into ProgramResult and
    // the JSON document (the report side of SolverStats).
    const auto program =
        lang::elaborateSource(circuits::mcxQbrSource(40));
    EngineOptions options =
        EngineOptions::singleLane(VerifierOptions::laneA());
    options.jobs = 2;
    const ProgramResult result = verifyAll(program, options);
    EXPECT_GT(result.solverTotals.propagations, 0);
    EXPECT_GT(result.solverTotals.arenaPeakWords, 0);
    const std::string json = toJson(result, "mcx");
    EXPECT_NE(std::string::npos, json.find("\"solver\": {"));
    EXPECT_NE(std::string::npos, json.find("\"inprocess_runs\": "));
    EXPECT_NE(std::string::npos, json.find("\"gc_runs\": "));
    EXPECT_NE(std::string::npos, json.find("\"arena_peak_words\": "));
    // Sessions share no clauses, so there are no exchange counters.
    EXPECT_EQ(std::string::npos, json.find("imported"));
    EXPECT_EQ(std::string::npos, json.find("exported"));
}

} // namespace
} // namespace qb::core
