/**
 * @file
 * Tests for the SAT-based safe-uncomputation verifier, cross-validated
 * against the brute-force truth-table verifier and the Definition 3.1
 * unitary factorization, including mutation (failure-injection)
 * suites.
 */

#include <gtest/gtest.h>

#include "circuits/adders.h"
#include "circuits/mcx.h"
#include "circuits/paper_figures.h"
#include "core/formula_builder.h"
#include "core/reference.h"
#include "core/verifier.h"
#include "sat/sweep.h"
#include "sat/tseitin.h"
#include "sim/classical.h"
#include "support/rng.h"

namespace qb::core {
namespace {

using ir::Circuit;
using ir::Gate;

/** The verifier's options with bounded variable elimination @p on or
 *  off in the direct solve. */
VerifierOptions
withElimination(bool on)
{
    VerifierOptions o;
    o.solver.preprocess = on;
    return o;
}

TEST(Verifier, Cccnot_Fig13_SafelyUncomputesDirtyQubit)
{
    const Circuit c = circuits::cccnotDirty();
    const QubitResult r =
        verifyQubit(c, circuits::kCccnotDirtyQubit);
    EXPECT_EQ(Verdict::Safe, r.verdict);
    EXPECT_EQ(FailedCondition::None, r.failed);
    EXPECT_EQ(Verdict::Safe,
              bruteForceVerdict(c, circuits::kCccnotDirtyQubit));
    EXPECT_EQ(Verdict::Safe,
              unitaryVerdict(c, circuits::kCccnotDirtyQubit));
}

TEST(Verifier, CccnotWorkingQubitsAreNotSafe)
{
    // q4 is the CCCNOT target: clearly unsafe; controls are safe
    // individually (outputs of others do not depend on them? they
    // do - q4's output depends on every control), so unsafe too.
    const Circuit c = circuits::cccnotDirty();
    EXPECT_EQ(Verdict::Unsafe, verifyQubit(c, 4).verdict);
    EXPECT_EQ(Verdict::Unsafe, verifyQubit(c, 0).verdict);
    EXPECT_EQ(Verdict::Unsafe, verifyQubit(c, 1).verdict);
    EXPECT_EQ(Verdict::Unsafe, verifyQubit(c, 3).verdict);
}

TEST(Verifier, Fig14_CleanSafeButDirtyUnsafe)
{
    const Circuit c = circuits::fig14Counterexample();
    // The naive clean-qubit criterion accepts the circuit ...
    EXPECT_TRUE(safeAsCleanQubit(c, 0));
    // ... but it is not safe as a dirty qubit: |+> is not restored.
    const QubitResult r = verifyQubit(c, 0);
    EXPECT_EQ(Verdict::Unsafe, r.verdict);
    EXPECT_EQ(FailedCondition::PlusRestoration, r.failed);
    EXPECT_EQ(Verdict::Unsafe, bruteForceVerdict(c, 0));
    EXPECT_EQ(Verdict::Unsafe, unitaryVerdict(c, 0));
}

TEST(Verifier, TargetFailsZeroRestoration)
{
    // X[q] flips |0> to |1>: condition (6.1) itself must fail.
    Circuit c(1);
    c.append(Gate::x(0));
    const QubitResult r = verifyQubit(c, 0);
    EXPECT_EQ(Verdict::Unsafe, r.verdict);
    EXPECT_EQ(FailedCondition::ZeroRestoration, r.failed);
}

TEST(Verifier, IdleQubitIsTriviallySafe)
{
    Circuit c(3);
    c.append(Gate::cnot(0, 1));
    const QubitResult r = verifyQubit(c, 2);
    EXPECT_EQ(Verdict::Safe, r.verdict);
    EXPECT_TRUE(r.solvedStructurally);
}

TEST(Verifier, NonClassicalCircuitIsRejected)
{
    Circuit c(2);
    c.append(Gate::h(0));
    EXPECT_EQ(Verdict::NotClassical, verifyQubit(c, 1).verdict);
}

TEST(Verifier, CounterexampleWitnessesViolation)
{
    const Circuit c = circuits::fig14Counterexample();
    const QubitResult r = verifyQubit(c, 0);
    ASSERT_EQ(Verdict::Unsafe, r.verdict);
    ASSERT_TRUE(r.counterexample.has_value());
    // For the (6.2) failure, flipping the dirty qubit in the
    // counterexample input must change some other qubit's output.
    const auto &cex = *r.counterexample;
    sim::ClassicalState s0(c.numQubits()), s1(c.numQubits());
    for (std::uint32_t q = 0; q < c.numQubits(); ++q) {
        s0.set(q, cex[q]);
        s1.set(q, cex[q]);
    }
    s1.set(0, !cex[0]);
    s0.applyCircuit(c);
    s1.applyCircuit(c);
    bool differs = false;
    for (std::uint32_t q = 1; q < c.numQubits(); ++q)
        differs |= s0.get(q) != s1.get(q);
    EXPECT_TRUE(differs);
}

TEST(Verifier, HanerAdderAllDirtyQubitsSafe)
{
    for (std::uint32_t n : {3u, 5u, 8u}) {
        const Circuit c = circuits::hanerCarryCircuit(n);
        for (std::uint32_t i = 1; i <= n - 1; ++i) {
            const ir::QubitId a = n + i - 1;
            EXPECT_EQ(Verdict::Safe, verifyQubit(c, a).verdict)
                << "n=" << n << " a[" << i << "]";
        }
    }
}

TEST(Verifier, HanerAdderInputQubitsAlsoRestored)
{
    // q[1..n-1] are restored too (the circuit only writes q[n]), and
    // q[n] is not.
    const std::uint32_t n = 6;
    const Circuit c = circuits::hanerCarryCircuit(n);
    for (std::uint32_t i = 1; i <= n - 1; ++i)
        EXPECT_EQ(Verdict::Unsafe, verifyQubit(c, i - 1).verdict)
            << "q[" << i << "] feeds the carry, so it is not "
               "safe-as-dirty";
    EXPECT_EQ(Verdict::Unsafe, verifyQubit(c, n - 1).verdict);
}

TEST(Verifier, GidneyMcxAncillaSafeBothPresets)
{
    // With bounded variable elimination on (the default) and off.
    for (std::uint32_t m : {4u, 5u, 6u}) {
        const Circuit c = circuits::gidneyMcx(m);
        const ir::QubitId anc = circuits::gidneyMcxAncilla(m);
        for (const bool bve : {true, false})
            EXPECT_EQ(Verdict::Safe,
                      verifyQubit(c, anc, withElimination(bve)).verdict)
                << m << " bve=" << bve;
    }
}

TEST(Verifier, BarencoMcxAncillasSafe)
{
    for (std::uint32_t m : {3u, 4u, 5u, 6u}) {
        const Circuit c = circuits::barencoMcx(m);
        for (std::uint32_t w = m + 1; w < 2 * m - 1; ++w)
            EXPECT_EQ(Verdict::Safe, verifyQubit(c, w).verdict)
                << "m=" << m << " w=" << w;
    }
}

TEST(Verifier, TimingsAndStatsPopulated)
{
    const Circuit c = circuits::hanerCarryCircuit(8);
    const QubitResult r = verifyQubit(c, 8); // a[1]
    EXPECT_EQ(Verdict::Safe, r.verdict);
    EXPECT_GE(r.buildSeconds, 0.0);
    EXPECT_GT(r.formulaNodes, 0u);
}

TEST(Verifier, ConflictBudgetReportsUnknown)
{
    // A deliberately hard unsafe instance with a tiny budget.
    Rng rng(5);
    Circuit c(12);
    for (int g = 0; g < 60; ++g) {
        auto a = static_cast<ir::QubitId>(rng.nextBelow(12));
        auto b = static_cast<ir::QubitId>(rng.nextBelow(12));
        auto t = static_cast<ir::QubitId>(rng.nextBelow(12));
        while (b == a)
            b = static_cast<ir::QubitId>(rng.nextBelow(12));
        while (t == a || t == b)
            t = static_cast<ir::QubitId>(rng.nextBelow(12));
        c.append(Gate::ccnot(a, b, t));
    }
    VerifierOptions opts;
    opts.solver.conflictBudget = 0;
    const QubitResult r = verifyQubit(c, 0, opts);
    // With zero conflicts allowed the verdict is Unknown unless the
    // formulas folded to constants.
    if (!r.solvedStructurally) {
        EXPECT_NE(Verdict::Safe, r.verdict);
    }
}

/** Random reversible circuit generator shared by the properties. */
Circuit
randomCircuit(Rng &rng, std::uint32_t n, int gates)
{
    Circuit c(n);
    for (int g = 0; g < gates; ++g) {
        const auto kind = rng.nextBelow(3);
        auto a = static_cast<ir::QubitId>(rng.nextBelow(n));
        auto b = static_cast<ir::QubitId>(rng.nextBelow(n));
        auto t = static_cast<ir::QubitId>(rng.nextBelow(n));
        while (b == a)
            b = static_cast<ir::QubitId>(rng.nextBelow(n));
        while (t == a || t == b)
            t = static_cast<ir::QubitId>(rng.nextBelow(n));
        if (kind == 0)
            c.append(Gate::x(a));
        else if (kind == 1)
            c.append(Gate::cnot(a, t));
        else
            c.append(Gate::ccnot(a, b, t));
    }
    return c;
}

class VerifierProperty : public ::testing::TestWithParam<int>
{};

TEST_P(VerifierProperty, SatAgreesWithBruteForceAndUnitary)
{
    Rng rng(GetParam());
    constexpr std::uint32_t n = 6;
    const Circuit c = randomCircuit(rng, n, 14);
    for (std::uint32_t q = 0; q < n; ++q) {
        const Verdict sat_verdict = verifyQubit(c, q).verdict;
        const Verdict brute = bruteForceVerdict(c, q);
        const Verdict unitary = unitaryVerdict(c, q);
        EXPECT_EQ(brute, sat_verdict) << "qubit " << q;
        EXPECT_EQ(unitary, sat_verdict)
            << "Theorem 6.2 equivalence violated on qubit " << q;
    }
}

TEST_P(VerifierProperty, SafeConjugationConstructionsVerifySafe)
{
    // V; T; V^-1 with T not touching q and V arbitrary on the rest:
    // q is only involved inside V...V^-1... Instead, construct the
    // classic toggling pattern: (U with target q)(W)(U^-1)(W^-1)
    // never changes q if U's target is not q.  Simplest guaranteed
    // safe construction: a circuit that uses q only as a control of
    // gates that are later exactly undone.
    Rng rng(GetParam() + 100);
    constexpr std::uint32_t n = 5;
    Circuit body(n);
    // q = 0 controls a CNOT onto 1; a random circuit on 1..4; undo.
    body.append(Gate::ccnot(0, 1, 2));
    Circuit mid = randomCircuit(rng, n, 8);
    // Restrict mid to qubits 1..4 by remapping any use of 0 to 1.
    Circuit mid_fixed(n);
    for (const Gate &g : mid.gates()) {
        bool uses0 = g.touches(0);
        if (!uses0)
            mid_fixed.append(g);
    }
    Circuit c(n);
    c.appendCircuit(body);
    c.appendCircuit(mid_fixed);
    c.appendCircuit(mid_fixed.inverse());
    c.appendCircuit(body.inverse());
    EXPECT_EQ(Verdict::Safe, verifyQubit(c, 0).verdict);
    EXPECT_EQ(Verdict::Safe, bruteForceVerdict(c, 0));
}

TEST_P(VerifierProperty, MutationFlipsMatchBruteForce)
{
    // Start from a safe circuit (CCCNOT with dirty qubit), inject a
    // single random extra gate, and require the SAT verdict to keep
    // tracking the brute-force oracle.
    Rng rng(GetParam() + 200);
    Circuit c = circuits::cccnotDirty();
    const std::uint32_t n = c.numQubits();
    auto a = static_cast<ir::QubitId>(rng.nextBelow(n));
    auto b = static_cast<ir::QubitId>(rng.nextBelow(n));
    while (b == a)
        b = static_cast<ir::QubitId>(rng.nextBelow(n));
    c.append(rng.nextBool() ? Gate::cnot(a, b) : Gate::x(a));
    for (std::uint32_t q = 0; q < n; ++q) {
        EXPECT_EQ(bruteForceVerdict(c, q), verifyQubit(c, q).verdict)
            << "qubit " << q;
    }
}

TEST_P(VerifierProperty, PresetsAgree)
{
    // Bounded variable elimination in the direct solve never changes
    // a verdict.
    Rng rng(GetParam() + 300);
    const Circuit c = randomCircuit(rng, 6, 12);
    for (std::uint32_t q = 0; q < 6; ++q) {
        EXPECT_EQ(verifyQubit(c, q, withElimination(true)).verdict,
                  verifyQubit(c, q, withElimination(false)).verdict)
            << "qubit " << q;
    }
}

TEST_P(VerifierProperty, EncodingsAgree)
{
    // A condition reaches SAT through two encodings: the sweeper's
    // node-by-node one over merged literals (sat/sweep.h) and the
    // direct Tseitin CNF.  Every (6.1) and (6.2) condition the sweep
    // settles must be Unsat under the direct encoding too, and the
    // direct answer must match the condition's truth table.
    Rng rng(GetParam() + 400);
    constexpr std::uint32_t n = 6;
    const Circuit c = randomCircuit(rng, n, 12);
    bexp::Arena arena;
    FormulaBuilder builder(arena, n);
    builder.applyCircuit(c);
    for (std::uint32_t q = 0; q < n; ++q) {
        std::vector<bexp::NodeRef> conditions{arena.mkAnd(
            {builder.formula(q), arena.mkNot(arena.mkVar(q))})};
        std::vector<bexp::NodeRef> diffs;
        for (std::uint32_t w = 0; w < n; ++w) {
            if (w == q)
                continue;
            diffs.push_back(arena.mkXor(
                {arena.substitute(builder.formula(w), q, bexp::kFalse),
                 arena.substitute(builder.formula(w), q, bexp::kTrue)}));
        }
        conditions.push_back(arena.mkOr(std::move(diffs)));
        for (const bexp::NodeRef root : conditions) {
            if (arena.isConst(root))
                continue;
            bool satisfiable = false;
            for (std::uint32_t a = 0; a < (1u << n); ++a) {
                std::vector<bool> input(n);
                for (std::uint32_t v = 0; v < n; ++v)
                    input[v] = (a >> v) & 1u;
                satisfiable = satisfiable || arena.evaluate(root, input);
            }
            const sat::SolveResult direct =
                sat::solveCnf(sat::encodeAssertTrue(arena, root).cnf);
            EXPECT_EQ(satisfiable ? sat::SolveResult::Sat
                                  : sat::SolveResult::Unsat,
                      direct)
                << "qubit " << q;
            if (sat::sweep(arena, root, -1, nullptr).result ==
                sat::SolveResult::Unsat) {
                EXPECT_EQ(sat::SolveResult::Unsat, direct)
                    << "qubit " << q;
            }
        }
    }
}

TEST_P(VerifierProperty, UnsafeCounterexamplesAreValid)
{
    Rng rng(GetParam() + 500);
    constexpr std::uint32_t n = 6;
    const Circuit c = randomCircuit(rng, n, 14);
    for (std::uint32_t q = 0; q < n; ++q) {
        const QubitResult r = verifyQubit(c, q);
        if (r.verdict != Verdict::Unsafe)
            continue;
        ASSERT_TRUE(r.counterexample.has_value());
        const auto &cex = *r.counterexample;
        sim::ClassicalState s(n);
        for (std::uint32_t k = 0; k < n; ++k)
            s.set(k, cex[k]);
        if (r.failed == FailedCondition::ZeroRestoration) {
            // Counterexample has q=0 in, q=1 out.
            ASSERT_FALSE(cex[q]);
            s.applyCircuit(c);
            EXPECT_TRUE(s.get(q));
        } else {
            // Flipping q changes some other output.
            sim::ClassicalState s2 = s;
            s2.set(q, !cex[q]);
            s.applyCircuit(c);
            s2.applyCircuit(c);
            bool differs = false;
            for (std::uint32_t k = 0; k < n; ++k)
                if (k != q && s.get(k) != s2.get(k))
                    differs = true;
            EXPECT_TRUE(differs);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierProperty,
                         ::testing::Range(0, 25));

TEST(CleanAncilla, RestoredAncillaIsSafe)
{
    // c starts in |0>, is toggled twice by the same control: restored.
    Circuit c(3);
    c.append(Gate::cnot(0, 2));
    c.append(Gate::cnot(0, 2));
    const QubitResult r = verifyCleanAncilla(c, 2);
    EXPECT_EQ(Verdict::Safe, r.verdict);
    EXPECT_EQ(FailedCondition::None, r.failed);
}

TEST(CleanAncilla, LeakedAncillaIsUnsafeWithValidCounterexample)
{
    // c ends holding q0's value: unsafe as a clean ancilla, and the
    // counterexample must actually drive it out of |0>.
    Circuit c(3);
    c.append(Gate::cnot(0, 2));
    const QubitResult r = verifyCleanAncilla(c, 2);
    ASSERT_EQ(Verdict::Unsafe, r.verdict);
    EXPECT_EQ(FailedCondition::ZeroRestoration, r.failed);
    ASSERT_TRUE(r.counterexample.has_value());
    sim::ClassicalState s(c.numQubits());
    for (std::uint32_t k = 0; k < c.numQubits(); ++k)
        s.set(k, (*r.counterexample)[k]);
    s.set(2, false); // the ancilla starts clean regardless
    s.applyCircuit(c);
    EXPECT_TRUE(s.get(2))
        << "counterexample must leave the clean ancilla outside |0>";
}

TEST(CleanAncilla, Fig14IsCleanSafeButDirtyUnsafe)
{
    // The paper's Figure 1.4 separation, through the clean-ancilla
    // entry point: clean-safe, dirty-unsafe.
    const Circuit c = circuits::fig14Counterexample();
    EXPECT_EQ(Verdict::Safe, verifyCleanAncilla(c, 0).verdict);
    EXPECT_EQ(Verdict::Unsafe, verifyQubit(c, 0).verdict);
}

TEST(CleanAncilla, NonClassicalRejected)
{
    Circuit c(2);
    c.append(Gate::h(0));
    EXPECT_EQ(Verdict::NotClassical, verifyCleanAncilla(c, 1).verdict);
}

TEST(CleanAncilla, IdleAncillaSolvedStructurally)
{
    Circuit c(3);
    c.append(Gate::cnot(0, 1));
    const QubitResult r = verifyCleanAncilla(c, 2);
    EXPECT_EQ(Verdict::Safe, r.verdict);
    EXPECT_TRUE(r.solvedStructurally);
}

TEST_P(VerifierProperty, CleanAncillaCounterexamplesReplay)
{
    // Every Unsafe clean-ancilla verdict must come with an input that,
    // replayed through the classical simulator with the ancilla
    // zeroed, leaves the ancilla set.
    Rng rng(GetParam() + 600);
    constexpr std::uint32_t n = 6;
    const Circuit c = randomCircuit(rng, n, 14);
    for (std::uint32_t q = 0; q < n; ++q) {
        const QubitResult r = verifyCleanAncilla(c, q);
        if (r.verdict != Verdict::Unsafe)
            continue;
        ASSERT_TRUE(r.counterexample.has_value());
        sim::ClassicalState s(n);
        for (std::uint32_t k = 0; k < n; ++k)
            s.set(k, (*r.counterexample)[k]);
        s.set(q, false);
        s.applyCircuit(c);
        EXPECT_TRUE(s.get(q)) << "qubit " << q;
    }
}

TEST_P(VerifierProperty, CleanAncillaAgreesWithExhaustiveCheck)
{
    Rng rng(GetParam() + 700);
    constexpr std::uint32_t n = 5;
    const Circuit c = randomCircuit(rng, n, 12);
    for (std::uint32_t q = 0; q < n; ++q) {
        // Exhaustive oracle: over all inputs with q = 0, does the
        // circuit ever leave q set?
        bool leaks = false;
        for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
            if ((bits >> q) & 1)
                continue;
            sim::ClassicalState s(n);
            for (std::uint32_t k = 0; k < n; ++k)
                s.set(k, (bits >> k) & 1);
            s.applyCircuit(c);
            if (s.get(q)) {
                leaks = true;
                break;
            }
        }
        EXPECT_EQ(leaks ? Verdict::Unsafe : Verdict::Safe,
                  verifyCleanAncilla(c, q).verdict)
            << "qubit " << q;
    }
}

TEST(VerifyProgram, AdderProgramScopesAndVerdicts)
{
    const auto prog = lang::elaborateSource(R"(
        borrow@ q[4];
        borrow a;
        CNOT[q[1], a];
        CNOT[q[1], a];
        release a;
        X[q[2]];
    )");
    const ProgramResult r = verifyProgram(prog);
    ASSERT_EQ(1u, r.qubits.size());
    EXPECT_EQ(Verdict::Safe, r.qubits[0].verdict);
    EXPECT_TRUE(r.allSafe());
    EXPECT_NE(std::string::npos, r.summary().find("1 safe"));
}

TEST(VerifyProgram, UnsafeBorrowDetected)
{
    const ProgramResult r = verifySource(R"(
        borrow@ q;
        borrow a;
        CNOT[a, q];
        release a;
    )");
    ASSERT_EQ(1u, r.qubits.size());
    EXPECT_EQ(Verdict::Unsafe, r.qubits[0].verdict);
    EXPECT_FALSE(r.allSafe());
}

TEST(VerifyProgram, LifetimeScopingMatters)
{
    // The X[a]-like damage happens after release, outside the
    // lifetime, so the borrow itself is safe... except gates after
    // release cannot reference 'a' at all; instead check that gates
    // before borrow are excluded from the scope.
    const ProgramResult r = verifySource(R"(
        borrow@ q[2];
        CNOT[q[1], q[2]];
        borrow a;
        CNOT[q[1], a];
        CNOT[q[1], a];
        release a;
        CNOT[q[1], q[2]];
    )");
    ASSERT_EQ(1u, r.qubits.size());
    EXPECT_EQ(Verdict::Safe, r.qubits[0].verdict);
}

TEST(VerifyProgram, BorrowSkipIsNotVerified)
{
    const ProgramResult r = verifySource(R"(
        borrow@ q[2];
        X[q[1]];
    )");
    EXPECT_TRUE(r.qubits.empty());
    EXPECT_TRUE(r.allSafe());
}

} // namespace
} // namespace qb::core
