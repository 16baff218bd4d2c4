/**
 * @file
 * Unit and property tests for the CDCL SAT solver and CNF container.
 *
 * The property suites compare solver verdicts against brute-force
 * enumeration on random small CNFs and check model validity, for both
 * configuration presets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "circuits/adders.h"
#include "core/formula_builder.h"
#include "sat/cnf.h"
#include "sat/solver.h"
#include "sat/tseitin.h"
#include "support/fuzz.h"
#include "support/logging.h"
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

TEST(Lit, PackingAndNegation)
{
    const Lit l = mkLit(5);
    EXPECT_EQ(5, l.var());
    EXPECT_FALSE(l.sign());
    EXPECT_EQ(5, (~l).var());
    EXPECT_TRUE((~l).sign());
    EXPECT_EQ(l, ~~l);
}

TEST(Cnf, AddClauseDropsDuplicatesAndTautologies)
{
    Cnf cnf;
    cnf.addClause({mkLit(0), mkLit(0), mkLit(1)});
    ASSERT_EQ(1u, cnf.numClauses());
    EXPECT_EQ(2u, cnf.clauses()[0].size());
    cnf.addClause({mkLit(0), ~mkLit(0)}); // tautology: dropped
    EXPECT_EQ(1u, cnf.numClauses());
}

TEST(Cnf, EmptyClauseMarksConflict)
{
    Cnf cnf;
    EXPECT_FALSE(cnf.trivialConflict());
    cnf.addClause({});
    EXPECT_TRUE(cnf.trivialConflict());
}

TEST(Cnf, DimacsRoundTrip)
{
    Cnf cnf;
    cnf.addClause({mkLit(0), ~mkLit(1)});
    cnf.addClause({mkLit(2)});
    const std::string text = cnf.toDimacs();
    const Cnf back = Cnf::fromDimacs(text);
    EXPECT_EQ(cnf.numVars(), back.numVars());
    ASSERT_EQ(cnf.numClauses(), back.numClauses());
    EXPECT_EQ(cnf.clauses(), back.clauses());
}

TEST(Cnf, DimacsRejectsGarbage)
{
    EXPECT_THROW(Cnf::fromDimacs("p dnf 2 1\n1 0\n"), FatalError);
    EXPECT_THROW(Cnf::fromDimacs("1 2 0\n"), FatalError);
    EXPECT_THROW(Cnf::fromDimacs("p cnf 2 1\n1 2\n"), FatalError);
    EXPECT_THROW(Cnf::fromDimacs("p cnf 2 1\nfoo 0\n"), FatalError);
}

TEST(Solver, EmptyFormulaIsSat)
{
    Solver s;
    EXPECT_EQ(SolveResult::Sat, s.solve());
}

TEST(Solver, UnitPropagationChain)
{
    Solver s;
    // x0; x0 -> x1; x1 -> x2.
    EXPECT_TRUE(s.addClause({mkLit(0)}));
    EXPECT_TRUE(s.addClause({~mkLit(0), mkLit(1)}));
    EXPECT_TRUE(s.addClause({~mkLit(1), mkLit(2)}));
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_EQ(LBool::True, s.modelValue(0));
    EXPECT_EQ(LBool::True, s.modelValue(1));
    EXPECT_EQ(LBool::True, s.modelValue(2));
}

TEST(Solver, ImmediateContradiction)
{
    Solver s;
    EXPECT_TRUE(s.addClause({mkLit(0)}));
    EXPECT_FALSE(s.addClause({~mkLit(0)}));
    EXPECT_EQ(SolveResult::Unsat, s.solve());
}

TEST(Solver, SimpleUnsatCore)
{
    Solver s;
    // (a | b) & (a | ~b) & (~a | b) & (~a | ~b) is UNSAT.
    s.addClause({mkLit(0), mkLit(1)});
    s.addClause({mkLit(0), ~mkLit(1)});
    s.addClause({~mkLit(0), mkLit(1)});
    s.addClause({~mkLit(0), ~mkLit(1)});
    EXPECT_EQ(SolveResult::Unsat, s.solve());
}

/** Pigeonhole principle: n+1 pigeons, n holes - classically UNSAT. */
Cnf
pigeonhole(int holes)
{
    Cnf cnf;
    const int pigeons = holes + 1;
    auto var = [&](int p, int h) { return p * holes + h; };
    for (int p = 0; p < pigeons; ++p) {
        LitVec clause;
        for (int h = 0; h < holes; ++h)
            clause.push_back(mkLit(var(p, h)));
        cnf.addClause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                cnf.addClause({~mkLit(var(p1, h)), ~mkLit(var(p2, h))});
    return cnf;
}

TEST(Solver, PigeonholeUnsatBaseline)
{
    for (int holes : {2, 3, 4, 5}) {
        EXPECT_EQ(SolveResult::Unsat,
                  solveCnf(pigeonhole(holes), SolverConfig::baseline()))
            << holes;
    }
}

TEST(Solver, PigeonholeUnsatSimplify)
{
    for (int holes : {2, 3, 4, 5}) {
        EXPECT_EQ(SolveResult::Unsat,
                  solveCnf(pigeonhole(holes), SolverConfig::simplify()))
            << holes;
    }
}

TEST(Solver, ConflictBudgetYieldsUnknown)
{
    SolverConfig cfg = SolverConfig::baseline();
    cfg.conflictBudget = 1;
    EXPECT_EQ(SolveResult::Unknown, solveCnf(pigeonhole(6), cfg));
}

TEST(Solver, StatsArePopulated)
{
    SolverStats stats;
    solveCnf(pigeonhole(4), SolverConfig::baseline(), &stats);
    EXPECT_GT(stats.conflicts, 0);
    EXPECT_GT(stats.decisions, 0);
    EXPECT_GT(stats.propagations, 0);
}

TEST(Solver, SatisfiedClausesSkippedAtAdd)
{
    Solver s;
    s.addClause({mkLit(0)});
    // Contains x0 already true: clause should be absorbed silently.
    EXPECT_TRUE(s.addClause({mkLit(0), mkLit(1)}));
    EXPECT_EQ(SolveResult::Sat, s.solve());
}

TEST(SolverAssumptions, SatUnderAssumptionsRespectsThem)
{
    Solver s;
    // (x0 | x1) with free choice; assumptions pin the branch.
    s.addClause({mkLit(0), mkLit(1)});
    EXPECT_EQ(SolveResult::Sat, s.solve({~mkLit(0)}));
    EXPECT_EQ(LBool::False, s.modelValue(0));
    EXPECT_EQ(LBool::True, s.modelValue(1));
    EXPECT_EQ(SolveResult::Sat, s.solve({~mkLit(1)}));
    EXPECT_EQ(LBool::True, s.modelValue(0));
    EXPECT_EQ(LBool::False, s.modelValue(1));
}

TEST(SolverAssumptions, UnsatCoreAndReusableAfterwards)
{
    Solver s;
    // a -> b, a -> ~b: assuming a is contradictory, but the clause
    // database itself is satisfiable.
    s.addClause({~mkLit(0), mkLit(1)});
    s.addClause({~mkLit(0), ~mkLit(1)});
    EXPECT_EQ(SolveResult::Unsat, s.solve({mkLit(0)}));
    ASSERT_EQ(1u, s.failedAssumptions().size());
    EXPECT_EQ(mkLit(0), s.failedAssumptions()[0]);
    // The solver stays usable: without the assumption it is Sat ...
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_EQ(LBool::False, s.modelValue(0));
    // ... and under the opposite assumption too.
    EXPECT_EQ(SolveResult::Sat, s.solve({~mkLit(0)}));
    // And the same failing call still fails identically.
    EXPECT_EQ(SolveResult::Unsat, s.solve({mkLit(0)}));
}

TEST(SolverAssumptions, CoreExcludesIrrelevantAssumptions)
{
    Solver s;
    s.addClause({~mkLit(0), ~mkLit(1)}); // x0 and x1 conflict
    s.addClause({mkLit(2), mkLit(3)});   // x2/x3 unrelated
    EXPECT_EQ(SolveResult::Unsat,
              s.solve({mkLit(0), mkLit(1), mkLit(2)}));
    const LitVec &core = s.failedAssumptions();
    EXPECT_FALSE(core.empty());
    for (Lit l : core) {
        EXPECT_TRUE(l == mkLit(0) || l == mkLit(1))
            << "core must only mention the conflicting assumptions";
    }
}

TEST(SolverAssumptions, ContradictoryAssumptionPair)
{
    Solver s;
    s.addClause({mkLit(0), mkLit(1)});
    EXPECT_EQ(SolveResult::Unsat, s.solve({mkLit(2), ~mkLit(2)}));
    const LitVec &core = s.failedAssumptions();
    ASSERT_EQ(2u, core.size());
    EXPECT_TRUE((core[0] == mkLit(2) && core[1] == ~mkLit(2)) ||
                (core[0] == ~mkLit(2) && core[1] == mkLit(2)));
}

TEST(SolverAssumptions, RootLevelFalsifiedAssumption)
{
    Solver s;
    s.addClause({mkLit(0)}); // unit: x0 true at the root
    EXPECT_EQ(SolveResult::Unsat, s.solve({~mkLit(0)}));
    ASSERT_EQ(1u, s.failedAssumptions().size());
    EXPECT_EQ(~mkLit(0), s.failedAssumptions()[0]);
}

TEST(SolverAssumptions, AssumptionOnFreshVariable)
{
    Solver s;
    s.addClause({mkLit(0), mkLit(1)});
    // Variable 7 is created on demand and is unconstrained.
    EXPECT_EQ(SolveResult::Sat, s.solve({mkLit(7)}));
    EXPECT_EQ(LBool::True, s.modelValue(7));
}

TEST(SolverAssumptions, GloballyUnsatDatabaseGivesEmptyCore)
{
    Solver s;
    s.addClause({mkLit(0), mkLit(1)});
    s.addClause({mkLit(0), ~mkLit(1)});
    s.addClause({~mkLit(0), mkLit(1)});
    s.addClause({~mkLit(0), ~mkLit(1)});
    EXPECT_EQ(SolveResult::Unsat, s.solve({mkLit(2)}));
    EXPECT_TRUE(s.failedAssumptions().empty())
        << "an inherently unsat database implicates no assumption";
}

TEST(SolverAssumptions, ConflictBudgetIsPerCall)
{
    // With a cumulative budget the second call would start exhausted;
    // a per-call budget gives every query the same allowance.
    SolverConfig cfg = SolverConfig::baseline();
    cfg.conflictBudget = 5000;
    Solver s(cfg);
    s.addCnf(pigeonhole(5));
    EXPECT_EQ(SolveResult::Unsat, s.solve());
    EXPECT_GT(s.stats().conflicts, 0);
    Solver reference(cfg);
    reference.addCnf(pigeonhole(5));
    EXPECT_EQ(SolveResult::Unsat, reference.solve());
    // Learnt clauses are retained, so re-deciding is not slower.
    const std::int64_t before = s.stats().conflicts;
    EXPECT_EQ(SolveResult::Unsat, s.solve());
    EXPECT_LE(s.stats().conflicts - before, before);
}

TEST(SolverAssumptions, SelectorStyleIncrementalUse)
{
    // The engine's usage pattern: several conditions behind selector
    // literals in one database, decided independently.
    Solver s;
    const Lit s1 = mkLit(0), s2 = mkLit(1);
    const Lit x = mkLit(2), y = mkLit(3);
    // Condition 1 (selector s1): x AND ~x - unsatisfiable.
    s.addClause({~s1, x});
    s.addClause({~s1, ~x});
    // Condition 2 (selector s2): y - satisfiable.
    s.addClause({~s2, y});
    EXPECT_EQ(SolveResult::Unsat, s.solve({s1}));
    ASSERT_EQ(1u, s.failedAssumptions().size());
    EXPECT_EQ(s1, s.failedAssumptions()[0]);
    EXPECT_EQ(SolveResult::Sat, s.solve({s2}));
    EXPECT_EQ(LBool::True, s.modelValue(y.var()));
    EXPECT_EQ(SolveResult::Sat, s.solve());
}

TEST(SolverAssumptions, SoundAfterPreprocessingEliminatedVars)
{
    // Regression: a plain solve() with the preprocessing preset can
    // eliminate variables; a later assumption-based call must restore
    // them instead of letting their placeholder assignments silently
    // satisfy or falsify assumptions.
    Solver s(SolverConfig::simplify());
    // x2 <-> (x0 & x1): x2 is a prime elimination candidate.
    s.addClause({~mkLit(2), mkLit(0)});
    s.addClause({~mkLit(2), mkLit(1)});
    s.addClause({mkLit(2), ~mkLit(0), ~mkLit(1)});
    EXPECT_EQ(SolveResult::Sat, s.solve());
    // x2 implies x0, so {x2, ~x0} is unsatisfiable.
    EXPECT_EQ(SolveResult::Unsat, s.solve({mkLit(2), ~mkLit(0)}));
    EXPECT_FALSE(s.failedAssumptions().empty());
    // And a satisfiable assumption set gets a model respecting it.
    EXPECT_EQ(SolveResult::Sat, s.solve({mkLit(0), mkLit(1)}));
    EXPECT_EQ(LBool::True, s.modelValue(2));
    EXPECT_EQ(SolveResult::Sat, s.solve({~mkLit(2)}));
    EXPECT_NE(LBool::True, s.modelValue(2));
}

TEST(SolverAssumptions, AddClauseAfterPreprocessingRestores)
{
    // Regression: adding a clause after a preprocessed solve() must
    // not simplify it against the placeholder assignments variable
    // elimination left behind.
    Solver s(SolverConfig::simplify());
    s.addClause({mkLit(0), mkLit(1)});  // x | y
    s.addClause({~mkLit(1), mkLit(2)}); // y -> z
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_TRUE(s.addClause({~mkLit(1)})); // now force y = 0
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_EQ(LBool::True, s.modelValue(0));
    EXPECT_NE(LBool::True, s.modelValue(1));
}

TEST(SolverAssumptions, StopFlagCancelsSearch)
{
    Solver s;
    s.addCnf(pigeonhole(8)); // hard enough to not finish instantly
    std::atomic<bool> stop{true};
    s.setStopFlag(&stop);
    EXPECT_EQ(SolveResult::Unknown, s.solve());
    // Detached again, the solver finishes the job.
    s.setStopFlag(nullptr);
    EXPECT_EQ(SolveResult::Unsat, s.solve());
}

/** Brute-force satisfiability with assumptions folded in as units. */
bool
bruteForceSatWithAssumptions(const Cnf &cnf, const LitVec &assumptions)
{
    Cnf combined = cnf;
    for (Lit a : assumptions)
        combined.addClause({a});
    return bruteForceSat(combined);
}

/** Random k-SAT generator with fixed clause/variable ratio. */
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

class SatProperty : public ::testing::TestWithParam<int>
{};

TEST_P(SatProperty, AgreesWithBruteForceBaseline)
{
    Rng rng(GetParam());
    // Near the 3-SAT threshold (ratio ~4.26) to get both outcomes.
    const Cnf cnf = randomCnf(rng, 8, 34, 3);
    const bool expected = bruteForceSat(cnf);
    SolverStats stats;
    const SolveResult got =
        solveCnf(cnf, SolverConfig::baseline(), &stats);
    EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat, got);
}

TEST_P(SatProperty, AgreesWithBruteForceSimplify)
{
    Rng rng(GetParam());
    const Cnf cnf = randomCnf(rng, 8, 34, 3);
    const bool expected = bruteForceSat(cnf);
    EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
              solveCnf(cnf, SolverConfig::simplify()));
}

TEST_P(SatProperty, ModelsActuallySatisfyBaseline)
{
    Rng rng(GetParam() + 5000);
    const Cnf cnf = randomCnf(rng, 10, 30, 3);
    Solver solver(SolverConfig::baseline());
    solver.addCnf(cnf);
    if (solver.solve() != SolveResult::Sat)
        return;
    std::vector<LBool> assign(cnf.numVars());
    for (Var v = 0; v < cnf.numVars(); ++v)
        assign[v] = solver.modelValue(v);
    EXPECT_TRUE(cnf.satisfiedBy(assign));
}

TEST_P(SatProperty, ModelsActuallySatisfySimplify)
{
    Rng rng(GetParam() + 5000);
    const Cnf cnf = randomCnf(rng, 10, 30, 3);
    Solver solver(SolverConfig::simplify());
    solver.addCnf(cnf);
    if (solver.solve() != SolveResult::Sat)
        return;
    std::vector<LBool> assign(cnf.numVars());
    for (Var v = 0; v < cnf.numVars(); ++v)
        assign[v] = solver.modelValue(v);
    EXPECT_TRUE(cnf.satisfiedBy(assign))
        << "variable elimination must reconstruct a full model";
}

TEST_P(SatProperty, AssumptionsAgreeWithBruteForce)
{
    Rng rng(GetParam() + 13000);
    const Cnf cnf = randomCnf(rng, 8, 30, 3);
    Solver solver(SolverConfig::baseline());
    solver.addCnf(cnf);
    // Several incremental rounds against ONE solver instance.
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
        const SolveResult got = solver.solve(assumptions);
        EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
                  got)
            << "round " << round;
        if (got == SolveResult::Unsat) {
            // Every core literal is one of the assumptions, and the
            // core alone already clashes with the clause database.
            for (Lit l : solver.failedAssumptions()) {
                EXPECT_NE(assumptions.end(),
                          std::find(assumptions.begin(),
                                    assumptions.end(), l));
            }
            EXPECT_FALSE(bruteForceSatWithAssumptions(
                cnf, solver.failedAssumptions()));
        } else {
            std::vector<LBool> assign(cnf.numVars());
            for (Var v = 0; v < cnf.numVars(); ++v)
                assign[v] = solver.modelValue(v);
            EXPECT_TRUE(cnf.satisfiedBy(assign));
            for (Lit a : assumptions)
                EXPECT_EQ(lboolOf(!a.sign()),
                          solver.modelValue(a.var()))
                    << "model must respect every assumption";
        }
    }
}

TEST_P(SatProperty, PlainSolveAfterAssumptionCallStaysSound)
{
    // Regression: an assumption call learns clauses; a later plain
    // solve() with the preprocessing preset must not run variable
    // elimination over a database with learnt clauses attached.
    Rng rng(GetParam() + 21000);
    const Cnf cnf = randomCnf(rng, 8, 30, 3);
    Solver solver(SolverConfig::simplify());
    solver.addCnf(cnf);
    LitVec assumptions;
    assumptions.push_back(
        mkLit(static_cast<Var>(rng.nextBelow(8)), rng.nextBool()));
    const bool under = bruteForceSatWithAssumptions(cnf, assumptions);
    EXPECT_EQ(under ? SolveResult::Sat : SolveResult::Unsat,
              solver.solve(assumptions));
    const bool plain = bruteForceSat(cnf);
    EXPECT_EQ(plain ? SolveResult::Sat : SolveResult::Unsat,
              solver.solve());
    if (plain) {
        std::vector<LBool> assign(cnf.numVars());
        for (Var v = 0; v < cnf.numVars(); ++v)
            assign[v] = solver.modelValue(v);
        EXPECT_TRUE(cnf.satisfiedBy(assign));
    }
}

TEST_P(SatProperty, WideClausesAgree)
{
    Rng rng(GetParam() + 9000);
    const Cnf cnf = randomCnf(rng, 9, 18, 5);
    const bool expected = bruteForceSat(cnf);
    EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
              solveCnf(cnf, SolverConfig::baseline()));
    EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
              solveCnf(cnf, SolverConfig::simplify()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatProperty, ::testing::Range(0, 40));

TEST_P(SatProperty, ClauseExchangeNeverChangesVerdicts)
{
    // Clauses one solver derives are implied by the shared formula, so
    // handing them to a differently configured solver over the same
    // formula can prune its search but never change its verdict.  The
    // derived clauses are the negated failed-assumption cores of
    // solver a's Unsat assumption calls.
    Rng rng(GetParam() + 13000);
    const Cnf cnf = randomCnf(rng, 8, 34, 3);
    const bool expected = bruteForceSat(cnf);
    SolverConfig second = SolverConfig::baseline();
    second.initialPhaseTrue = true;
    Solver a;
    Solver b(second);
    a.addCnf(cnf);
    b.addCnf(cnf);
    for (int round = 0; round < 8; ++round) {
        LitVec assumptions;
        for (Var v = 0; v < cnf.numVars(); ++v)
            if (rng.nextBelow(3) == 0)
                assumptions.push_back(mkLit(v, rng.nextBool()));
        if (a.solve(assumptions) != SolveResult::Unsat)
            continue;
        LitVec derived;
        for (const Lit l : a.failedAssumptions())
            derived.push_back(~l);
        if (derived.empty())
            break; // a refuted the formula itself
        b.addClause(derived);
    }
    EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
              a.solve());
    EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
              b.solve());
    if (expected) {
        std::vector<LBool> assign(cnf.numVars());
        for (Var v = 0; v < cnf.numVars(); ++v)
            assign[v] = b.modelValue(v);
        EXPECT_TRUE(cnf.satisfiedBy(assign));
    }
}

// ===================================================== binary watchers

TEST(BinaryWatch, PropagationChainTouchesNoArena)
{
    // A pure implication chain of binary clauses: every propagation
    // step must be decided from the specialized binary watchers (the
    // implied literal is inlined), so the arena is never read inside
    // propagate() - the ISSUE 5 acceptance contract.
    Solver s;
    constexpr Var n = 60;
    for (Var v = 0; v + 1 < n; ++v)
        EXPECT_TRUE(s.addClause({~mkLit(v), mkLit(v + 1)}));
    EXPECT_TRUE(s.addClause({mkLit(0)})); // fires the chain
    EXPECT_EQ(SolveResult::Sat, s.solve());
    for (Var v = 0; v < n; ++v)
        EXPECT_EQ(LBool::True, s.modelValue(v)) << "var " << v;
    EXPECT_EQ(0, s.stats().propagationArenaReads)
        << "binary propagation must not dereference the arena";
    EXPECT_EQ(n - 1, s.stats().binPropagations);
}

TEST(BinaryWatch, BinaryConflictsStillAvoidTheArena)
{
    // Binary-only UNSAT: conflicts are detected on the binary path
    // too, again with zero arena reads during propagation (conflict
    // ANALYSIS may dereference; that is not propagation).
    Solver s;
    s.addClause({mkLit(0), mkLit(1)});
    s.addClause({mkLit(0), ~mkLit(1)});
    s.addClause({~mkLit(0), mkLit(1)});
    s.addClause({~mkLit(0), ~mkLit(1)});
    EXPECT_EQ(SolveResult::Unsat, s.solve());
    EXPECT_EQ(0, s.stats().propagationArenaReads);
}

TEST(BinaryWatch, LongClausesStillReadTheArena)
{
    // Control for the counter itself: a ternary clause that becomes
    // unit must be visited through the long-clause path, which does
    // dereference - the zero above is meaningful, not vacuous.
    Solver s;
    EXPECT_TRUE(s.addClause({mkLit(0), mkLit(1), mkLit(2)}));
    EXPECT_TRUE(s.addClause({~mkLit(0)}));
    EXPECT_TRUE(s.addClause({~mkLit(1)}));
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_EQ(LBool::True, s.modelValue(2));
    EXPECT_GT(s.stats().propagationArenaReads, 0);
}

TEST(BinaryWatch, BinaryOnlyFormulaAllocatesNoArena)
{
    // The binary-free-arena contract: a formula of nothing but binary
    // clauses lives entirely in the watcher lists, so the clause
    // arena never grows at all - arena_peak_kw genuinely measures
    // long clauses only.  The equivalence ladder below forces every
    // variable to share one value, all through binary implications.
    Solver s;
    constexpr Var n = 24;
    for (Var v = 0; v + 1 < n; ++v) {
        EXPECT_TRUE(s.addClause({~mkLit(v), mkLit(v + 1)}));
        EXPECT_TRUE(s.addClause({mkLit(v), ~mkLit(v + 1)}));
    }
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_EQ(0, s.stats().arenaPeakWords)
        << "binary clauses must never touch the clause arena";
    EXPECT_EQ(0, s.stats().propagationArenaReads);
    for (Var v = 1; v < n; ++v)
        EXPECT_EQ(s.modelValue(0), s.modelValue(v)) << "var " << v;
}

TEST_P(SatProperty, BinaryHeavyAgreesWithBruteForce)
{
    // Random formulas dominated by binary clauses, decided once as
    // binaries and once rewritten through the long-clause path (each
    // 2-clause padded with a fresh literal that a later unit forces
    // false, so the padded clause attaches as a ternary): both
    // routes must agree with brute force and with each other.
    Rng rng(GetParam() + 31000);
    constexpr Var kVars = 8;
    std::vector<LitVec> clauses;
    for (int i = 0; i < 24; ++i) {
        const Var a = static_cast<Var>(rng.nextBelow(kVars));
        Var b = static_cast<Var>(rng.nextBelow(kVars));
        while (b == a)
            b = static_cast<Var>(rng.nextBelow(kVars));
        clauses.push_back(
            {mkLit(a, rng.nextBool()), mkLit(b, rng.nextBool())});
    }
    for (int i = 0; i < 4; ++i) { // a few long clauses in the mix
        LitVec c;
        for (int j = 0; j < 3; ++j)
            c.push_back(mkLit(static_cast<Var>(rng.nextBelow(kVars)),
                              rng.nextBool()));
        clauses.push_back(c);
    }
    Cnf cnf;
    cnf.ensureVars(kVars);
    for (const LitVec &c : clauses)
        cnf.addClause(c);
    const bool expected = bruteForceSat(cnf);

    Solver direct;
    direct.addCnf(cnf);
    EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
              direct.solve());

    // Same formula, binaries forced through the long-clause path.
    Solver padded;
    Var pad = kVars;
    LitVec pad_units;
    for (const LitVec &c : clauses) {
        if (c.size() == 2) {
            LitVec widened = c;
            widened.push_back(mkLit(pad));
            pad_units.push_back(~mkLit(pad));
            ++pad;
            EXPECT_TRUE(padded.addClause(widened));
        } else {
            EXPECT_TRUE(padded.addClause(c));
        }
    }
    bool padded_ok = true;
    for (const Lit u : pad_units)
        padded_ok = padded.addClause({u}) && padded_ok;
    const SolveResult padded_result =
        padded_ok ? padded.solve() : SolveResult::Unsat;
    EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
              padded_result);
}

// ========================================== on-the-fly subsumption

TEST(SolverOtf, StrengthensAntecedentsAtLearnTime)
{
    // Pigeonhole generates dense resolution chains where the learnt
    // clause regularly self-subsumes an antecedent; the OTF pass
    // must fire and the verdict must be untouched.
    Solver s;
    s.addCnf(pigeonhole(7));
    EXPECT_EQ(SolveResult::Unsat, s.solve());
    EXPECT_GT(s.stats().otfStrengthenedClauses, 0)
        << "expected learn-time strengthening on pigeonhole chains";
}

TEST(SolverOtf, CanBeDisabledByConfig)
{
    SolverConfig cfg;
    cfg.otfSubsume = false;
    Solver s(cfg);
    s.addCnf(pigeonhole(6));
    EXPECT_EQ(SolveResult::Unsat, s.solve());
    EXPECT_EQ(0, s.stats().otfStrengthenedClauses);
    EXPECT_EQ(0, s.stats().otfSkipped);
}

TEST_P(SatProperty, OtfOnAndOffAgreeWithBruteForce)
{
    // The OTF edit only ever applies self-subsuming resolution, so
    // verdicts and model validity must be identical with the pass on
    // and off, and both must match brute force.
    Rng rng(GetParam() + 47000);
    const Cnf cnf = randomCnf(rng, 9, 38, 3);
    const bool expected = bruteForceSat(cnf);
    SolverConfig off;
    off.otfSubsume = false;
    for (const bool with_otf : {true, false}) {
        Solver solver(with_otf ? SolverConfig::baseline() : off);
        solver.addCnf(cnf);
        const SolveResult got = solver.solve();
        EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
                  got)
            << "otf=" << with_otf;
        if (got == SolveResult::Sat) {
            std::vector<LBool> assign(cnf.numVars());
            for (Var v = 0; v < cnf.numVars(); ++v)
                assign[v] = solver.modelValue(v);
            EXPECT_TRUE(cnf.satisfiedBy(assign));
        }
    }
}

TEST_P(SatProperty, OtfKeepsIncrementalAnswersExact)
{
    // Strengthened antecedents stay in the database across calls;
    // every later assumption query must still agree with brute force
    // (the strengthened clauses are exercised, not just carried).
    Rng rng(GetParam() + 53000);
    const Cnf cnf = randomCnf(rng, 8, 32, 3);
    Solver solver;
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
    }
}

// ======================================================= validateModel

TEST(ValidateModel, EmptyClauseListAlwaysValidates)
{
    EXPECT_TRUE(validateModel({}, {}));
    EXPECT_TRUE(validateModel({}, {LBool::Undef}));
}

TEST(ValidateModel, UndefAndOutOfRangeNeverSatisfy)
{
    const std::vector<LitVec> clauses{{mkLit(0)}, {mkLit(1)}};
    std::size_t failed = 99;
    // x0 Undef: clause 0 unsatisfied.
    EXPECT_FALSE(validateModel(clauses,
                               {LBool::Undef, LBool::True}, &failed));
    EXPECT_EQ(0u, failed);
    // Model shorter than the variable range: clause 1 unsatisfied.
    EXPECT_FALSE(validateModel(clauses, {LBool::True}, &failed));
    EXPECT_EQ(1u, failed);
    EXPECT_TRUE(validateModel(clauses, {LBool::True, LBool::True}));
}

TEST(ValidateModel, ReportsFirstUnsatisfiedClause)
{
    const std::vector<LitVec> clauses{
        {mkLit(0), mkLit(1)}, {~mkLit(0)}, {mkLit(1)}};
    std::size_t failed = 99;
    EXPECT_FALSE(validateModel(
        clauses, {LBool::True, LBool::False}, &failed));
    EXPECT_EQ(1u, failed);
}

TEST_P(SatProperty, ValidatedModelsBothPresets)
{
    // The fuzz generator's binary-heavy near-threshold distribution,
    // decided by both presets; every Sat verdict must produce a model
    // that passes the public validateModel checker - the same check
    // the fuzz harness and qbsat run after every Sat answer.
    Rng rng(GetParam() + 61000);
    fuzz::CnfKnobs knobs;
    knobs.maxVars = 10;
    const Cnf cnf = fuzz::generateCnf(rng, knobs);
    const bool expected = bruteForceSat(cnf);
    for (const bool simplify : {false, true}) {
        Solver solver(simplify ? SolverConfig::simplify()
                               : SolverConfig::baseline());
        solver.addCnf(cnf);
        const SolveResult got = solver.solve();
        EXPECT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat,
                  got)
            << "simplify=" << simplify;
        if (got != SolveResult::Sat)
            continue;
        std::vector<LBool> model(cnf.numVars());
        for (Var v = 0; v < cnf.numVars(); ++v)
            model[v] = solver.modelValue(v);
        std::size_t failed = 0;
        EXPECT_TRUE(validateModel(cnf.clauses(), model, &failed))
            << "simplify=" << simplify << " failed clause "
            << failed;
    }
}

// ================================== bounded variable elimination

/**
 * Condition (6.2) of Theorem 6.4 for dirty qubit @p dirty of the
 * Haner carry adder on @p n bits, Tseitin-encoded as one CNF: the
 * OR over the other wires of the XOR of their two cofactors.
 */
Cnf
adderPlusConditionCnf(std::uint32_t n, std::uint32_t dirty)
{
    const auto circuit = circuits::hanerCarryCircuit(n);
    bexp::Arena arena;
    core::FormulaBuilder builder(arena, circuit.numQubits());
    builder.applyCircuit(circuit);
    std::vector<bexp::NodeRef> disjuncts;
    for (std::uint32_t q = 0; q < circuit.numQubits(); ++q) {
        if (q == dirty)
            continue;
        const bexp::NodeRef f = builder.formula(q);
        disjuncts.push_back(
            arena.mkXor({arena.substitute(f, dirty, bexp::kFalse),
                         arena.substitute(f, dirty, bexp::kTrue)}));
    }
    return encodeAssertTrue(arena, arena.mkOr(std::move(disjuncts)))
        .cnf;
}

/**
 * Two hubs over fresh variables, popped first: variable 49 occurs
 * positively in 11 clauses (one over the occurrence limit, so it is
 * skipped) and 48 in exactly 10 (at the limit, so it goes).
 */
Cnf
occurrenceLimitCnf()
{
    Cnf cnf;
    cnf.ensureVars(50);
    Var fresh = 0;
    auto hub = [&](Lit l, int count) {
        for (int i = 0; i < count; ++i) {
            const Var x = fresh++, y = fresh++;
            cnf.addClause({l, mkLit(x), mkLit(y)});
        }
    };
    hub(mkLit(49), 11);
    hub(~mkLit(49), 1);
    hub(mkLit(48), 10);
    hub(~mkLit(48), 1);
    return cnf;
}

TEST(SolverBve, EliminationTrajectoryIsPinned)
{
    // Bounded variable elimination has an output contract: which
    // variables it eliminates, in which order, and which clauses it
    // leaves attached in which order.  The search counters below are
    // downstream of all of it, so any change to the elimination
    // trajectory (queue order, occurrence limit, resolvent bound,
    // freezing, resolvent literal order) moves at least one of them.
    // The values are what commit c12c29b (the last one with the
    // binary-graph passes) produces for solveCnf(cnf, simplify())
    // with SolverConfig::binaryAnalysis = false, i.e. with elimination
    // running on the formula exactly as addClause() leaves it, which
    // is what the solver does now that those passes are gone.  A
    // change that touches only speed keeps them exact.
    struct Expected
    {
        const char *name;
        Cnf cnf;
        SolveResult result;
        std::int64_t eliminated, conflicts, decisions, propagations;
    };
    std::vector<Expected> corpus;
    // Every dirty ancilla a[1..n-2] of the adder: all safe, so every
    // condition is UNSAT.  a[n-1]'s condition folds to a constant in
    // the formula arena and never reaches a solver.
    const std::int64_t adder12[][4] = {
        {24, 92, 195, 736}, {24, 98, 205, 767}, {26, 82, 161, 606},
        {27, 75, 145, 537}, {28, 60, 110, 375}, {29, 50, 90, 303},
        {30, 37, 63, 204}, {31, 20, 32, 83}, {32, 8, 23, 39},
        {31, 5, 19, 31}};
    const std::int64_t adder16[][4] = {
        {32, 149, 379, 1434}, {32, 144, 354, 1337},
        {34, 139, 329, 1231}, {35, 120, 301, 1064},
        {36, 105, 262, 900}, {37, 98, 254, 816},
        {38, 82, 209, 654}, {39, 75, 185, 577},
        {40, 60, 142, 407}, {41, 50, 114, 327},
        {42, 37, 79, 220}, {43, 20, 40, 91},
        {44, 8, 31, 47}, {43, 5, 27, 39}};
    auto add_adder = [&](std::uint32_t n, const std::int64_t (*rows)[4],
                         std::size_t count) {
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint32_t dirty = n + i; // a[i + 1]
            corpus.push_back({"adder", adderPlusConditionCnf(n, dirty),
                              SolveResult::Unsat, rows[i][0],
                              rows[i][1], rows[i][2], rows[i][3]});
        }
    };
    add_adder(12, adder12, std::size(adder12));
    add_adder(16, adder16, std::size(adder16));
    corpus.push_back({"pigeonhole(6)", pigeonhole(6),
                      SolveResult::Unsat, 7, 500, 551, 4052});
    corpus.push_back({"occurrence limit", occurrenceLimitCnf(),
                      SolveResult::Sat, 14, 0, 36, 36});
    // Random 3-SAT near the threshold: 60 variables, 256 clauses.
    const struct
    {
        SolveResult result;
        std::int64_t eliminated, conflicts, decisions, propagations;
    } random[] = {
        {SolveResult::Sat, 2, 46, 54, 941},
        {SolveResult::Sat, 1, 57, 85, 975},
        {SolveResult::Sat, 4, 71, 92, 1109},
        {SolveResult::Sat, 1, 26, 39, 506},
        {SolveResult::Sat, 2, 47, 63, 839},
        {SolveResult::Unsat, 0, 49, 62, 818},
        {SolveResult::Sat, 1, 35, 52, 617},
        {SolveResult::Sat, 1, 36, 55, 565},
        {SolveResult::Sat, 1, 31, 44, 526},
        {SolveResult::Unsat, 0, 34, 40, 608}};
    for (int seed = 0; seed < 10; ++seed) {
        Rng rng(900 + seed);
        const auto &r = random[seed];
        corpus.push_back({"random", randomCnf(rng, 60, 256, 3),
                          r.result, r.eliminated, r.conflicts,
                          r.decisions, r.propagations});
    }

    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const Expected &e = corpus[i];
        SCOPED_TRACE(std::string(e.name) + " #" + std::to_string(i));
        SolverStats stats;
        EXPECT_EQ(e.result,
                  solveCnf(e.cnf, SolverConfig::simplify(), &stats));
        EXPECT_EQ(e.eliminated, stats.eliminatedVars);
        EXPECT_EQ(e.conflicts, stats.conflicts);
        EXPECT_EQ(e.decisions, stats.decisions);
        EXPECT_EQ(e.propagations, stats.propagations);
    }
}

TEST(SolverBve, PreprocessSecondsCoverOnlyTheSolveEntryPasses)
{
    // No elimination: nothing to time.
    SolverStats plain;
    solveCnf(pigeonhole(5), SolverConfig::baseline(), &plain);
    EXPECT_EQ(0.0, plain.preprocessSeconds);

    SolverStats pre;
    EXPECT_EQ(SolveResult::Unsat,
              solveCnf(adderPlusConditionCnf(12, 12),
                       SolverConfig::simplify(), &pre));
    EXPECT_GT(pre.eliminatedVars, 0);
    EXPECT_GT(pre.preprocessSeconds, 0.0);
    SolverStats total;
    total.accumulate(pre);
    total.accumulate(pre);
    EXPECT_DOUBLE_EQ(2 * pre.preprocessSeconds, total.preprocessSeconds);
}

/**
 * Random CNF on 10-12 variables shaped to reach the edge cases of
 * bounded variable elimination.  Elimination pops variables from the
 * highest index down, so the roles sit at fixed indices:
 *
 *  - n-1 occurs positively in exactly 10 clauses (the occurrence
 *    limit) and negatively in 1-3: it commits at the limit with one,
 *    and usually trips the resolvent bound and is frozen with more;
 *  - n-2 occurs negatively in exactly 11 clauses, one over the limit;
 *  - n-3, n-4 and n-5 form a chain whose resolvents shrink to a unit;
 *  - n-6 occurs once on each side, once next to n-1: its resolvent
 *    touches n-1 again after n-1 has been frozen;
 *  - 0, 1 and 2 form a binary equivalence cycle, so elimination meets
 *    variables whose binary occurrences resolve into one another;
 *  - the remaining "body" variables, and 0, fill the other literals,
 *    and random ternaries over them skew their occurrence counts and
 *    make tautological resolvents.
 *
 * Every clause but the cycle is a ternary.  Three seeds in four plant
 * a model (each clause is made true under a random
 * assignment), the rest are left to chance and are often UNSAT.
 */
Cnf
skewedEliminationCnf(Rng &rng)
{
    const auto n = static_cast<Var>(10 + rng.nextBelow(3));
    const Var top = n - 1, over = n - 2, w = n - 3, u = n - 4, v = n - 5;
    const Var toucher = n - 6;
    // Cycle member 0 and the body variables [3, n - 6).
    std::vector<Var> others{0};
    for (Var b = 3; b < toucher; ++b)
        others.push_back(b);
    const bool plant = rng.nextBelow(4) != 0;
    std::vector<bool> model(n);
    for (Var x = 0; x < n; ++x)
        model[x] = rng.nextBool();
    auto lit = [&](Var x) { return mkLit(x, rng.nextBool()); };
    auto is_true = [&](Lit l) { return model[l.var()] != l.sign(); };
    Cnf cnf;
    cnf.ensureVars(n);
    // (fixed | x | y): x and y distinct from pool; planting flips x
    // when the clause would be false, never the fixed literal.
    auto add = [&](Lit fixed, const std::vector<Var> &pool) {
        const Var x = pool[rng.nextBelow(pool.size())];
        Var y = pool[rng.nextBelow(pool.size())];
        while (y == x)
            y = pool[rng.nextBelow(pool.size())];
        Lit lx = lit(x);
        const Lit ly = lit(y);
        if (plant && !is_true(fixed) && !is_true(lx) && !is_true(ly))
            lx = ~lx;
        cnf.addClause({fixed, lx, ly});
    };
    for (int i = 0; i < 9; ++i) // the tenth is the toucher's
        add(mkLit(top), others);
    const auto top_neg = 1 + rng.nextBelow(3);
    for (std::uint64_t i = 0; i < top_neg; ++i)
        add(~mkLit(top), others);
    for (int i = 0; i < 11; ++i)
        add(~mkLit(over), others);
    for (int i = 0; i < 2; ++i)
        add(mkLit(over), others);
    // toucher: (toucher | top | x) and (~toucher | x | y).
    {
        Lit x = lit(others[rng.nextBelow(others.size())]);
        if (plant && !is_true(mkLit(toucher)) && !is_true(mkLit(top)) &&
            !is_true(x))
            x = ~x;
        cnf.addClause({mkLit(toucher), mkLit(top), x});
        add(~mkLit(toucher), others);
    }
    // Chain: eliminating w and u leaves (v | a) and (~v | a), whose
    // resolvent is the unit (a).
    {
        Lit a = lit(others[rng.nextBelow(others.size())]);
        if (plant && !is_true(a))
            a = ~a;
        cnf.addClause({mkLit(v), a, mkLit(w)});
        cnf.addClause({mkLit(v), a, ~mkLit(w)});
        cnf.addClause({~mkLit(v), a, mkLit(u)});
        cnf.addClause({~mkLit(v), a, ~mkLit(u)});
    }
    // Equivalence cycle 0 -> 1 -> 2 -> 0 (signs random, so planting
    // fixes the model to agree with it).
    const Lit c0 = lit(0), c1 = lit(1), c2 = lit(2);
    if (plant) {
        model[1] = is_true(c0) != c1.sign();
        model[2] = is_true(c0) != c2.sign();
    }
    cnf.addClause({~c0, c1});
    cnf.addClause({~c1, c2});
    cnf.addClause({~c2, c0});
    const auto extra = rng.nextBelow(2 * n);
    for (std::uint64_t i = 0; others.size() >= 3 && i < extra; ++i) {
        std::vector<Var> rest = others;
        const auto k = static_cast<std::ptrdiff_t>(
            rng.nextBelow(rest.size()));
        const Var first = rest[k];
        rest.erase(rest.begin() + k);
        add(lit(first), rest);
    }
    return cnf;
}

TEST_P(SatProperty, EliminationEdgeCasesAgreeWithBruteForce)
{
    Rng rng(GetParam() + 71000);
    const Cnf cnf = skewedEliminationCnf(rng);
    const bool expected = bruteForceSat(cnf);
    Solver solver(SolverConfig::simplify());
    solver.addCnf(cnf);
    const SolveResult got = solver.solve();
    solver.checkInvariants();
    ASSERT_EQ(expected ? SolveResult::Sat : SolveResult::Unsat, got);
    if (got != SolveResult::Sat)
        return;
    std::vector<LBool> model(cnf.numVars());
    for (Var v = 0; v < cnf.numVars(); ++v)
        model[v] = solver.modelValue(v);
    std::size_t failed = 0;
    EXPECT_TRUE(validateModel(cnf.clauses(), model, &failed))
        << "failed clause " << failed;
}

TEST(SolverBve, EdgeCaseFamilyReachesElimination)
{
    // Coverage guard for the family above, on the counters the
    // solver reports: across its seeds, elimination must commit
    // somewhere, and both verdicts must occur.
    int eliminating = 0, sat = 0, unsat = 0;
    for (int seed = 0; seed < 40; ++seed) {
        Rng rng(seed + 71000);
        const Cnf cnf = skewedEliminationCnf(rng);
        Solver solver(SolverConfig::simplify());
        solver.addCnf(cnf);
        const SolveResult got = solver.solve();
        (got == SolveResult::Sat ? sat : unsat) += 1;
        eliminating += solver.stats().eliminatedVars > 0;
    }
    EXPECT_GT(eliminating, 0);
    EXPECT_GT(sat, 0);
    EXPECT_GT(unsat, 0);
}

} // namespace
} // namespace qb::sat
