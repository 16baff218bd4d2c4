/**
 * @file
 * Tests for the Section 7 extension features: clean-ancilla
 * verification, almost-sure-termination analysis, and verification
 * with bounded variable elimination on and off.
 */

#include <gtest/gtest.h>

#include "circuits/paper_figures.h"
#include "circuits/qbr_text.h"
#include "core/reference.h"
#include "core/verifier.h"
#include "lang/elaborate.h"
#include "semantics/safety.h"

namespace qb {
namespace {

using core::Verdict;

TEST(CleanAncilla, RestoredAllocVerifiesSafe)
{
    // Compute-copy-uncompute onto a clean ancilla.
    const auto prog = lang::elaborateSource(R"(
        borrow@ q[2];
        alloc c;
        CCNOT[q[1], q[2], c];
        CCNOT[q[1], q[2], c];
    )");
    const ir::QubitId c = 2;
    EXPECT_EQ(lang::QubitRole::Alloc, prog.qubits[c].role);
    const auto r = core::verifyCleanAncilla(prog.circuit, c);
    EXPECT_EQ(Verdict::Safe, r.verdict);
    EXPECT_TRUE(r.solvedStructurally);
}

TEST(CleanAncilla, LeakedAllocIsUnsafe)
{
    const auto prog = lang::elaborateSource(R"(
        borrow@ q[2];
        alloc c;
        CCNOT[q[1], q[2], c];
    )");
    const auto r = core::verifyCleanAncilla(prog.circuit, 2);
    EXPECT_EQ(Verdict::Unsafe, r.verdict);
    EXPECT_EQ(core::FailedCondition::ZeroRestoration, r.failed);
    ASSERT_TRUE(r.counterexample.has_value());
    // The witness must set both controls with the ancilla at 0.
    EXPECT_TRUE((*r.counterexample)[0]);
    EXPECT_TRUE((*r.counterexample)[1]);
}

TEST(CleanAncilla, WeakerThanDirtySafety)
{
    // Figure 1.4: clean-safe but dirty-unsafe.  The clean-ancilla
    // verifier must accept what the dirty verifier rejects.
    const auto c = circuits::fig14Counterexample();
    EXPECT_EQ(Verdict::Safe, core::verifyCleanAncilla(c, 0).verdict);
    EXPECT_EQ(Verdict::Unsafe, core::verifyQubit(c, 0).verdict);
}

TEST(CleanAncilla, ProgramLevelCheckIncludesAllocs)
{
    const auto prog = lang::elaborateSource(R"(
        borrow@ q[2];
        alloc c;
        borrow d;
        CNOT[q[1], d];
        CNOT[q[1], d];
        release d;
        CCNOT[q[1], q[2], c];
    )");
    const auto without = core::verifyProgram(prog, {}, false);
    EXPECT_EQ(1u, without.qubits.size()); // only the borrow
    const auto with = core::verifyProgram(prog, {}, true);
    ASSERT_EQ(2u, with.qubits.size());
    EXPECT_EQ(Verdict::Safe, with.qubits[0].verdict);    // d
    EXPECT_EQ(Verdict::Unsafe, with.qubits[1].verdict);  // c leaked
    EXPECT_EQ("c", with.qubits[1].name);
}

TEST(CleanAncilla, NonClassicalRejected)
{
    ir::Circuit c(2);
    c.append(ir::Gate::h(0));
    EXPECT_EQ(Verdict::NotClassical,
              core::verifyCleanAncilla(c, 1).verdict);
}

TEST(Lanes, BothLanesAgreeOnBenchmarks)
{
    // The benchmark programs verify alike with bounded variable
    // elimination in the direct solve on (the default) and off.
    core::VerifierOptions no_bve;
    no_bve.solver.preprocess = false;
    for (const auto &source :
         {circuits::adderQbrSource(6), circuits::mcxQbrSource(4)}) {
        const auto prog = lang::elaborateSource(source);
        const auto a = core::verifyProgram(prog);
        const auto b = core::verifyProgram(prog, no_bve);
        ASSERT_EQ(a.qubits.size(), b.qubits.size());
        for (std::size_t i = 0; i < a.qubits.size(); ++i)
            EXPECT_EQ(a.qubits[i].verdict, b.qubits[i].verdict);
        EXPECT_TRUE(a.allSafe());
    }
}

TEST(Termination, StraightLineProgramsTerminate)
{
    sem::InterpOptions o;
    o.numQubits = 2;
    const auto s = sem::seq(sem::gateX(sem::Operand::q(0)),
                            sem::gateCnot(sem::Operand::q(0),
                                          sem::Operand::q(1)));
    EXPECT_EQ(sem::Termination::Terminates,
              sem::terminatesAlmostSurely(s, o));
}

TEST(Termination, AlmostSureLoopTerminates)
{
    // while M[q] do H[q]: terminates with probability 1.
    sem::InterpOptions o;
    o.numQubits = 1;
    const auto s = sem::whileM(sem::Operand::q(0),
                               sem::gateH(sem::Operand::q(0)));
    EXPECT_EQ(sem::Termination::Terminates,
              sem::terminatesAlmostSurely(s, o));
}

TEST(Termination, DivergentLoopDetected)
{
    // while M[q] do skip: diverges from |1>.
    sem::InterpOptions o;
    o.numQubits = 1;
    o.maxWhileIterations = 32;
    const auto s =
        sem::whileM(sem::Operand::q(0), sem::skip());
    const auto verdict = sem::terminatesAlmostSurely(s, o);
    EXPECT_NE(sem::Termination::Terminates, verdict);
}

TEST(Termination, DeterministicDivergenceIsDefinite)
{
    // while M[q] do X[q]; X[q]: the guard stays 1 forever once it
    // measures 1; the body restores q each iteration.
    sem::InterpOptions o;
    o.numQubits = 1;
    o.maxWhileIterations = 16;
    const auto q0 = sem::Operand::q(0);
    const auto s = sem::whileM(
        q0, sem::seq(sem::gateX(q0), sem::gateX(q0)));
    const auto verdict = sem::terminatesAlmostSurely(s, o);
    EXPECT_NE(sem::Termination::Terminates, verdict);
}

TEST(Termination, MeasureAndExitTerminates)
{
    // while M[q] do X[q]: at most one iteration.
    sem::InterpOptions o;
    o.numQubits = 1;
    const auto q0 = sem::Operand::q(0);
    EXPECT_EQ(sem::Termination::Terminates,
              sem::terminatesAlmostSurely(
                  sem::whileM(q0, sem::gateX(q0)), o));
}

} // namespace
} // namespace qb
