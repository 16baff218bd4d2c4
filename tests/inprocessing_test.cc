/**
 * @file
 * Tests for the arena clause allocator, the relocating garbage
 * collector, the learn-time (OTF) in-place clause edits and bounded
 * variable elimination on binary-heavy formulas.
 *
 * Built as the ctest-labelled `inprocessing` group: the ASan/TSan CI
 * jobs run it explicitly so GC relocation and the in-place clause
 * edits are exercised under both sanitizers.  Coverage follows the
 * reduceDb/GC interaction contract: locked (reason) clauses survive
 * relocation with valid references, a solver that GCs mid-session
 * keeps its verdicts, and the engine returns identical verdicts AND
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
    // A hard instance learns past the reduction limit; the clauses
    // reduceDb() frees must eventually trip the 20%-waste GC
    // threshold without help.
    Solver s;
    s.addCnf(pigeonhole(8));
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
    // Incremental rounds against one solver with an explicit GC
    // between rounds: every verdict must match brute force.
    Rng rng(GetParam() + 91000);
    const Cnf cnf = randomCnf(rng, 8, 30, 3);
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
        if (solver.solve() != SolveResult::Sat)
            break; // base formula unsat: solver is done
        solver.garbageCollect();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InprocessingProperty,
                         ::testing::Range(0, 25));

TEST(ClauseGc, BinaryWatchListsSurviveRelocation)
{
    // Binary clauses live only in the specialized binary lists; a GC
    // must leave those watchers intact, and root-level BINARY reasons
    // must still support final-conflict analysis afterwards.
    // The solver's initial phase is positive: the all-positive filler
    // clauses are satisfied by every decision, so propagation stays
    // on the binary path and the zero-arena-reads assertion below is
    // exact.  No elimination, so every clause stays in place.
    Solver s(SolverConfig{.preprocess = false});
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
    // Random binary-heavy formulas with explicit GCs between
    // incremental rounds: the non-empty binary watch lists must
    // survive every relocation with verdicts identical to brute
    // force.
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
        if (solver.solve() != SolveResult::Sat)
            break;
        solver.garbageCollect();
    }
}

TEST_P(InprocessingProperty, OtfStrengtheningAgreesWithBruteForce)
{
    // The learn-time strengthenings must keep the database equivalent
    // round after round: decide random assumption queries against
    // brute force on one long-lived solver, whose in-place arena
    // edits carry over from query to query.
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
    }
}

TEST(Inprocessing, AddClauseAfterRestoreChecksOkay)
{
    // The re-entrant restoreEliminated() inside addClause() can latch
    // root unsatisfiability; addClause() must then report failure
    // instead of attaching to a broken solver.  Preprocess first so
    // the elimination stack is populated.
    Solver s;
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

TEST_P(InprocessingProperty, BinaryAnalysisAgreesWithBruteForce)
{
    // Random binary-heavy formulas: verdicts must match brute force
    // round for round, and every Sat round's model must satisfy the
    // clauses and the assumptions.
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
        if (solver.solve() != SolveResult::Sat)
            break;
    }
}

TEST_P(InprocessingProperty, BinaryAnalysisComposesWithImportsAndGc)
{
    // Binary-heavy formulas with clauses added between rounds and a
    // relocating GC after each: the relocation sweep must keep binary
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
    Solver solver;
    solver.addCnf(cnf);
    for (int round = 0; round < 4; ++round) {
        if (solver.solve() != SolveResult::Sat)
            break;
        // Add a consequence: a widened copy of a real clause is
        // subsumed by it, so the verdicts below stay those of cnf.
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
        solver.garbageCollect();
    }
}

TEST_P(InprocessingProperty, BinaryAnalysisComposesWithElimination)
{
    // Bounded variable elimination on binary-heavy formulas, then
    // assumption rounds (which restore eliminated variables): the
    // first model is reconstructed over eliminated variables, and
    // verdicts must still match brute force.
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
    Solver solver;
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

} // namespace
} // namespace qb::sat

namespace qb::core {
namespace {

/** Session options without bounded variable elimination in the direct
 *  solves: the solvers search longest. */
EngineOptions
noElimination()
{
    EngineOptions o;
    o.lane.solver.preprocess = false;
    return o;
}

/** Every integer counter of @p s, for exact comparisons. */
std::vector<std::int64_t>
integerCounters(const sat::SolverStats &s)
{
    return {s.decisions,        s.propagations,
            s.binPropagations,  s.propagationArenaReads,
            s.conflicts,        s.restarts,
            s.learntClauses,    s.removedClauses,
            s.eliminatedVars,   s.sweptConditions,
            s.sweepMerges,      s.inprocessRuns,
            s.otfStrengthenedClauses, s.otfSkipped,
            s.gcRuns,           s.gcWordsReclaimed,
            s.arenaPeakWords,   s.peakLearnts};
}

TEST(EngineInprocessing, JobsDeterminismOnLaneA)
{
    // The scheduler acceptance contract without elimination, where
    // the solvers search longest: --jobs 1 and --jobs N give
    // identical verdicts AND counterexamples.
    const auto program =
        lang::elaborateSource(circuits::adderQbrSource(10));
    const EngineOptions base = noElimination();
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

TEST(EngineInprocessing, UnsafeCounterexamplesIgnoreJobs)
{
    // Counterexamples are the model of the solver that decided the
    // condition, which runs on whichever worker is free.  Over unsafe
    // random programs, with elimination on and off, --jobs 1 and
    // --jobs 4 must agree on every verdict, failed condition and
    // counterexample.
    const auto programs = unsafeProneRandomPrograms(0xCE3, 400);
    for (const bool bve : {true, false}) {
        std::vector<std::vector<QubitResult>> runs;
        for (const unsigned jobs : {1u, 4u}) {
            EngineOptions options = bve ? EngineOptions{} : noElimination();
            options.jobs = jobs;
            const auto scheduler = std::make_shared<Scheduler>(jobs);
            std::vector<QubitResult> qubits;
            for (const auto &program : programs) {
                ProgramResult r = verifyAll(program, options, {}, false,
                                            scheduler, nullptr);
                for (QubitResult &q : r.qubits)
                    qubits.push_back(std::move(q));
            }
            runs.push_back(std::move(qubits));
        }
        const std::vector<QubitResult> &reference = runs.front();
        std::size_t counterexamples = 0;
        for (const QubitResult &q : reference)
            counterexamples += q.counterexample.has_value() ? 1 : 0;
        EXPECT_GT(counterexamples, 250u) << "bve " << bve;
        for (std::size_t k = 1; k < runs.size(); ++k) {
            ASSERT_EQ(reference.size(), runs[k].size());
            for (std::size_t i = 0; i < reference.size(); ++i) {
                EXPECT_EQ(reference[i].verdict, runs[k][i].verdict)
                    << "bve " << bve << " config " << k
                    << " qubit " << i;
                EXPECT_EQ(reference[i].failed, runs[k][i].failed)
                    << "bve " << bve << " config " << k
                    << " qubit " << i;
                EXPECT_EQ(reference[i].counterexample,
                          runs[k][i].counterexample)
                    << "bve " << bve << " config " << k
                    << " qubit " << i;
            }
        }
    }
}

TEST(EngineDefaults, JobsOneAndFourBitIdentical)
{
    // The engine runs each condition as an unordered pool task in its
    // own solver; --jobs 1 and --jobs 4 must still agree on every
    // verdict, failed condition, counterexample and lane, and on every
    // integer solver counter of each program's report, on safe adders
    // and unsafe random programs alike.  A speculative (6.2) query
    // that an Unsafe (6.1) abandons must not leak into the totals.
    std::vector<lang::ElaboratedProgram> programs =
        unsafeProneRandomPrograms(0xDEF, 120);
    for (const std::uint32_t n : {6u, 10u})
        programs.push_back(
            lang::elaborateSource(circuits::adderQbrSource(n)));
    std::vector<QubitResult> runs[2];
    std::vector<std::vector<std::int64_t>> totals[2];
    for (const unsigned jobs : {1u, 4u}) {
        EngineOptions options;
        options.jobs = jobs;
        for (const auto &program : programs) {
            ProgramResult result = verifyAll(program, options);
            totals[jobs == 4].push_back(
                integerCounters(result.solverTotals));
            for (QubitResult &q : result.qubits)
                runs[jobs == 4].push_back(std::move(q));
        }
    }
    ASSERT_EQ(totals[0].size(), totals[1].size());
    for (std::size_t p = 0; p < totals[0].size(); ++p)
        EXPECT_EQ(totals[0][p], totals[1][p]) << "program " << p;
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
    // The dressed mcx program keeps the binary watch lists busy: its
    // binary propagations must flow through ProgramResult into the
    // JSON report.
    const auto program = lang::elaborateSource(
        circuits::binaryHeavyMcxQbrSource(20));
    const ProgramResult result = verifyAll(program, EngineOptions{});
    for (const QubitResult &r : result.qubits)
        EXPECT_EQ(Verdict::Safe, r.verdict) << r.name;
    EXPECT_GE(result.solverTotals.binPropagations, 1);
    const std::string json = toJson(result, "binary-heavy-mcx");
    EXPECT_NE(std::string::npos, json.find("\"bin_propagations\": "));
}

TEST(EngineInprocessing, SolverTotalsReachJsonReport)
{
    // The aggregated solver counters must flow into ProgramResult and
    // the JSON document (the report side of SolverStats).
    const auto program =
        lang::elaborateSource(circuits::mcxQbrSource(40));
    EngineOptions options;
    options.jobs = 2;
    const ProgramResult result = verifyAll(program, options);
    EXPECT_GT(result.solverTotals.propagations, 0);
    EXPECT_GT(result.solverTotals.arenaPeakWords, 0);
    const std::string json = toJson(result, "mcx");
    EXPECT_NE(std::string::npos, json.find("\"solver\": {"));
    EXPECT_NE(std::string::npos, json.find("\"inprocess_runs\": "));
    EXPECT_NE(std::string::npos, json.find("\"gc_runs\": "));
    EXPECT_NE(std::string::npos, json.find("\"arena_peak_words\": "));
    // Sessions share no clauses, so there are no exchange counters,
    // and the solver has no vivification, subsumption, deferred OTF
    // or binary-graph passes to count.
    for (const char *gone :
         {"imported", "exported", "vivified", "subsumed",
          "strengthened_clauses", "otf_deferred", "scc_merged",
          "probed_failed", "hyper_binaries", "transitive_reduced"})
        EXPECT_EQ(std::string::npos, json.find(gone)) << gone;
}

} // namespace
} // namespace qb::core
