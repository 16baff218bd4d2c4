/**
 * @file
 * Tests for the session-based VerificationEngine: agreement with the
 * one-shot wrappers and the brute-force oracle, one session across
 * qubits, elimination on and off, conflict budgets, batch verification
 * with streaming observers, and the JSON report emitter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <clocale>

#include "circuits/adders.h"
#include "circuits/mcx.h"
#include "circuits/paper_figures.h"
#include "circuits/qbr_text.h"
#include "core/engine.h"
#include "core/reference.h"
#include "core/report.h"
#include "core/verifier.h"
#include "lang/elaborate.h"
#include "sim/classical.h"
#include "support/rng.h"
#include "support/strings.h"

namespace qb::core {
namespace {

using ir::Circuit;
using ir::Gate;

/** Session options with bounded variable elimination @p on or off in
 *  the direct solves (the one solver knob besides the budget). */
EngineOptions
withElimination(bool on)
{
    EngineOptions o;
    o.lane.solver.preprocess = on;
    return o;
}

TEST(Engine, AgreesWithOneShotOnAllCccnotQubits)
{
    const Circuit c = circuits::cccnotDirty();
    VerificationEngine engine(c);
    for (ir::QubitId q = 0; q < c.numQubits(); ++q) {
        EXPECT_EQ(verifyQubit(c, q).verdict, engine.verify(q).verdict)
            << "qubit " << q;
    }
    // All queries went through one session: formulas were built once.
    EXPECT_EQ(static_cast<std::size_t>(c.numQubits()),
              engine.stats().qubitsVerified);
}

TEST(Engine, MultiQubitCircuitOneSessionManyVerdicts)
{
    // The Haner adder: all dirty ancillas safe, inputs unsafe, in one
    // session.
    const std::uint32_t n = 6;
    const Circuit c = circuits::hanerCarryCircuit(n);
    VerificationEngine engine(c);
    for (std::uint32_t i = 1; i <= n - 1; ++i) {
        EXPECT_EQ(Verdict::Safe, engine.verify(n + i - 1).verdict)
            << "a[" << i << "]";
    }
    for (std::uint32_t i = 1; i <= n - 1; ++i) {
        EXPECT_EQ(Verdict::Unsafe, engine.verify(i - 1).verdict)
            << "q[" << i << "]";
    }
    EXPECT_GT(engine.stats().satCalls, 0u);
}

TEST(Engine, RepeatedQueryIsIdentical)
{
    // A session caches no conditions: preparing a qubit again rebuilds
    // them in the hash-consed arena, which hands back the same
    // NodeRefs, so the repeat decides the same formulas.  Every qubit
    // of the circuit, safe and unsafe alike, answers the same twice.
    const Circuit c = circuits::cccnotDirty();
    VerificationEngine engine(c);
    for (ir::QubitId q = 0; q < c.numQubits(); ++q) {
        const QubitResult first = engine.verify(q);
        const QubitResult again = engine.verify(q);
        EXPECT_EQ(first.verdict, again.verdict) << "qubit " << q;
        EXPECT_EQ(first.failed, again.failed) << "qubit " << q;
        EXPECT_EQ(first.counterexample, again.counterexample)
            << "qubit " << q;
        EXPECT_EQ(first.formulaNodes, again.formulaNodes)
            << "qubit " << q;
    }
    EXPECT_EQ(Verdict::Safe,
              engine.verify(circuits::kCccnotDirtyQubit).verdict);
}

TEST(Engine, NotClassicalCircuit)
{
    Circuit c(2);
    c.append(Gate::h(0));
    VerificationEngine engine(c);
    EXPECT_EQ(Verdict::NotClassical, engine.verify(1).verdict);
    EXPECT_EQ(Verdict::NotClassical,
              engine.verifyCleanAncilla(1).verdict);
}

TEST(Engine, EachLaneAgreesAndRecordsItsLane)
{
    // QubitResult::lane is 0 when the session decided a condition
    // with a SAT call and -1 when none was needed, with bounded
    // variable elimination on and off alike.
    const Circuit c = circuits::hanerCarryCircuit(5);
    for (const bool bve : {true, false}) {
        VerificationEngine engine(c, withElimination(bve));
        for (ir::QubitId q = 0; q < c.numQubits(); ++q) {
            const std::size_t calls = engine.stats().satCalls;
            const QubitResult r = engine.verify(q);
            EXPECT_EQ(verifyQubit(c, q).verdict, r.verdict)
                << "bve " << bve << " qubit " << q;
            EXPECT_EQ(engine.stats().satCalls > calls ? 0 : -1, r.lane)
                << "bve " << bve << " qubit " << q;
        }
    }
}

TEST(Engine, CounterexamplesAreValidOnEachLane)
{
    Rng rng(7);
    Circuit c(6);
    for (int g = 0; g < 14; ++g) {
        auto a = static_cast<ir::QubitId>(rng.nextBelow(6));
        auto b = static_cast<ir::QubitId>(rng.nextBelow(6));
        auto t = static_cast<ir::QubitId>(rng.nextBelow(6));
        while (b == a)
            b = static_cast<ir::QubitId>(rng.nextBelow(6));
        while (t == a || t == b)
            t = static_cast<ir::QubitId>(rng.nextBelow(6));
        c.append(Gate::ccnot(a, b, t));
    }
    for (const bool bve : {true, false}) {
        VerificationEngine engine(c, withElimination(bve));
        for (ir::QubitId q = 0; q < c.numQubits(); ++q) {
            const QubitResult r = engine.verify(q);
            EXPECT_EQ(bruteForceVerdict(c, q), r.verdict)
                << "bve " << bve << " qubit " << q;
            if (r.verdict != Verdict::Unsafe)
                continue;
            ASSERT_TRUE(r.counterexample.has_value());
            const auto &cex = *r.counterexample;
            sim::ClassicalState s0(c.numQubits()), s1(c.numQubits());
            for (std::uint32_t k = 0; k < c.numQubits(); ++k) {
                s0.set(k, cex[k]);
                s1.set(k, cex[k]);
            }
            if (r.failed == FailedCondition::ZeroRestoration) {
                ASSERT_FALSE(cex[q]);
                s0.applyCircuit(c);
                EXPECT_TRUE(s0.get(q));
            } else {
                s1.set(q, !cex[q]);
                s0.applyCircuit(c);
                s1.applyCircuit(c);
                bool differs = false;
                for (std::uint32_t k = 0; k < c.numQubits(); ++k)
                    if (k != q && s0.get(k) != s1.get(k))
                        differs = true;
                EXPECT_TRUE(differs);
            }
        }
    }
}

TEST(Engine, VerifyAllStreamsResultsInOrder)
{
    const auto program = lang::elaborateSource(R"(
        borrow@ q[3];
        borrow a[2];
        CNOT[q[1], a[1]];
        CNOT[q[2], a[2]];
        CNOT[q[1], a[1]];
    )");
    std::vector<std::string> seen;
    const ProgramResult result = verifyAll(
        program, EngineOptions{},
        [&seen](const QubitResult &r) { seen.push_back(r.name); });
    ASSERT_EQ(2u, result.qubits.size());
    ASSERT_EQ(2u, seen.size());
    EXPECT_EQ(result.qubits[0].name, seen[0]);
    EXPECT_EQ(result.qubits[1].name, seen[1]);
    // a[1] is uncomputed, a[2] is not.
    EXPECT_EQ(Verdict::Safe, result.qubits[0].verdict);
    EXPECT_EQ(Verdict::Unsafe, result.qubits[1].verdict);
}

TEST(Engine, VerifyAllMatchesVerifyProgram)
{
    const auto program = lang::elaborateSource(R"(
        borrow@ q[4];
        borrow a;
        CCNOT[q[1], q[2], a];
        CCNOT[a, q[3], q[4]];
        CCNOT[q[1], q[2], a];
        CCNOT[a, q[3], q[4]];
        release a;
    )");
    const ProgramResult wrapper = verifyProgram(program);
    const ProgramResult engine = verifyAll(program);
    ASSERT_EQ(wrapper.qubits.size(), engine.qubits.size());
    for (std::size_t i = 0; i < wrapper.qubits.size(); ++i)
        EXPECT_EQ(wrapper.qubits[i].verdict,
                  engine.qubits[i].verdict);
}

TEST(Engine, VerifyAllChecksCleanAncillas)
{
    const auto program = lang::elaborateSource(R"(
        borrow@ q[2];
        alloc c;
        CNOT[q[1], c];
        CNOT[q[1], c];
        alloc d;
        CNOT[q[2], d];
    )");
    const ProgramResult without = verifyAll(program);
    EXPECT_TRUE(without.qubits.empty());
    const ProgramResult with =
        verifyAll(program, EngineOptions{}, {}, true);
    ASSERT_EQ(2u, with.qubits.size());
    EXPECT_EQ(Verdict::Safe, with.qubits[0].verdict);
    EXPECT_EQ(Verdict::Unsafe, with.qubits[1].verdict);
}

TEST(Engine, JsonReportIsWellFormedish)
{
    const ProgramResult result = verifySource(R"(
        borrow@ q;
        borrow a;
        CNOT[a, q];
        release a;
    )");
    const std::string json = toJson(result, "inline.qbr");
    EXPECT_NE(std::string::npos, json.find("\"program\": \"inline.qbr\""));
    EXPECT_NE(std::string::npos, json.find("\"all_safe\": false"));
    EXPECT_NE(std::string::npos, json.find("\"verdict\": \"unsafe\""));
    EXPECT_NE(std::string::npos, json.find("\"counterexample\": ["));
    EXPECT_NE(std::string::npos, json.find("\"counts\": {\"safe\": 0, "
                                           "\"unsafe\": 1"));
    // Balanced braces and brackets (cheap structural sanity check).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(Engine, JsonEscapesNames)
{
    QubitResult r;
    r.name = "weird\"name\\with\ncontrol";
    const std::string json = toJson(r);
    EXPECT_NE(std::string::npos,
              json.find("weird\\\"name\\\\with\\ncontrol"));
}

TEST(Engine, JsonEscapesDelCharacter)
{
    // DEL (0x7f) is a control character too; raw, it breaks strict
    // JSON consumers.
    QubitResult r;
    r.name = std::string("del") + '\x7f' + "im";
    const std::string json = toJson(r);
    EXPECT_NE(std::string::npos, json.find("del\\u007fim"));
    EXPECT_EQ(std::string::npos, json.find('\x7f'));
}

TEST(Engine, JsonNumbersAreLocaleIndependent)
{
    // Under a comma-decimal locale, printf("%f") writes "0,5" - not a
    // JSON number.  toJson must be immune to whatever LC_NUMERIC the
    // embedding process happens to run with.
    const char *switched = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
    if (!switched)
        switched = std::setlocale(LC_NUMERIC, "de_DE.utf8");
    if (!switched)
        switched = std::setlocale(LC_NUMERIC, "de_DE");
    if (!switched)
        GTEST_SKIP() << "no comma-decimal locale installed";
    const std::string probe = format("%.1f", 0.5);

    QubitResult qubit;
    qubit.solveSeconds = 0.5;
    ProgramResult program;
    program.qubits.push_back(qubit);
    program.totalSeconds = 1.5;
    const std::string json = toJson(program, "locale.qbr");
    std::setlocale(LC_NUMERIC, "C");

    if (probe != "0,5")
        GTEST_SKIP() << "locale did not use a comma decimal point";
    EXPECT_NE(std::string::npos,
              json.find("\"solve_seconds\": 0.500000"));
    EXPECT_NE(std::string::npos,
              json.find("\"total_seconds\": 1.500000"));
    EXPECT_EQ(std::string::npos, json.find("0,5"));
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

TEST(Engine, BudgetExhaustedConditionIsUnknownOnEachLane)
{
    // A 1-conflict budget cannot decide the adder conditions: with
    // bounded variable elimination on and off alike the verdict is
    // Unknown, the conflicts burnt are charged to the result, and no
    // counterexample is claimed.
    const auto program =
        lang::elaborateSource(circuits::adderQbrSource(12));
    const ir::QubitId first =
        program.qubitsWithRole(lang::QubitRole::BorrowVerify).front();
    const lang::QubitInfo &info = program.qubits[first];
    const Circuit scope =
        program.circuit.slice(info.scopeBegin, info.scopeEnd);
    for (const bool bve : {true, false}) {
        EngineOptions options = withElimination(bve);
        options.lane.solver.conflictBudget = 1;
        options.jobs = 1;
        VerificationEngine engine(scope, options);
        bool saw_unknown = false;
        for (ir::QubitId q :
             program.qubitsWithRole(lang::QubitRole::BorrowVerify)) {
            const QubitResult r = engine.verify(q);
            if (r.verdict != Verdict::Unknown)
                continue;
            saw_unknown = true;
            EXPECT_GE(r.conflicts, 1)
                << "bve " << bve << " qubit " << q;
            EXPECT_FALSE(r.counterexample.has_value())
                << "bve " << bve << " qubit " << q;
        }
        EXPECT_TRUE(saw_unknown)
            << "bve " << bve
            << ": budget too generous for this circuit; tighten the test";
    }
}

TEST(Engine, SolverConflictBudgetIsTheSessionBudget)
{
    // lane.solver.conflictBudget is the one per-condition budget:
    // every condition's solver is built from lane.solver, so a
    // 1-conflict budget leaves adder conditions undecided.
    const auto program =
        lang::elaborateSource(circuits::adderQbrSource(24));
    EngineOptions options;
    options.lane.solver.conflictBudget = 1;
    options.jobs = 2;
    const ProgramResult result = verifyAll(program, options);
    ASSERT_EQ(23u, result.qubits.size());
    std::size_t unknown = 0;
    for (const QubitResult &r : result.qubits)
        if (r.verdict == Verdict::Unknown)
            ++unknown;
    EXPECT_GE(unknown, 1u);
    // No budget: every carry qubit is safe.
    for (const QubitResult &r : verifyAll(program).qubits)
        EXPECT_EQ(Verdict::Safe, r.verdict) << r.name;
}

TEST(Engine, CleanAncillaResidueCanExhaustTheBudget)
{
    // A clean check takes the same decision path as (6.1): a residue
    // b_q[0/q] that does not fold goes to a solver under the
    // session's budget, and a solver that runs out reports Unknown
    // with its conflicts charged and no counterexample.  On the adder
    // every residue folds except the sum output's, which takes more
    // than one conflict to refute.
    const auto program =
        lang::elaborateSource(circuits::adderQbrSource(12));
    const lang::QubitInfo &info = program.qubits[
        program.qubitsWithRole(lang::QubitRole::BorrowVerify).front()];
    const Circuit scope =
        program.circuit.slice(info.scopeBegin, info.scopeEnd);
    EngineOptions budgeted;
    budgeted.lane.solver.conflictBudget = 1;
    budgeted.jobs = 1;
    VerificationEngine tight(scope, budgeted);
    VerificationEngine unbounded(scope);
    std::size_t unknown = 0;
    for (ir::QubitId q = 0; q < scope.numQubits(); ++q) {
        const QubitResult full = unbounded.verifyCleanAncilla(q);
        const QubitResult r = tight.verifyCleanAncilla(q);
        if (r.verdict != Verdict::Unknown) {
            EXPECT_EQ(full.verdict, r.verdict) << "qubit " << q;
            continue;
        }
        ++unknown;
        EXPECT_EQ(0, full.lane) << "qubit " << q;
        EXPECT_EQ(0, r.lane) << "qubit " << q;
        EXPECT_EQ(1, r.conflicts) << "qubit " << q;
        EXPECT_GT(full.conflicts, 1) << "qubit " << q;
        EXPECT_FALSE(r.counterexample.has_value()) << "qubit " << q;
    }
    EXPECT_GE(unknown, 1u)
        << "budget too generous for this circuit; tighten the test";
}

class EngineProperty : public ::testing::TestWithParam<int>
{};

TEST_P(EngineProperty, SessionAgreesWithBruteForceOnEveryQubit)
{
    Rng rng(GetParam());
    constexpr std::uint32_t n = 6;
    const Circuit c = randomCircuit(rng, n, 14);
    VerificationEngine engine(c);
    for (std::uint32_t q = 0; q < n; ++q) {
        EXPECT_EQ(bruteForceVerdict(c, q), engine.verify(q).verdict)
            << "qubit " << q;
    }
}

TEST_P(EngineProperty, LanesAgreeWithinOneSession)
{
    // Sessions with bounded variable elimination on and off agree.
    Rng rng(GetParam() + 4000);
    const Circuit c = randomCircuit(rng, 6, 12);
    VerificationEngine a(c, withElimination(true));
    VerificationEngine b(c, withElimination(false));
    for (std::uint32_t q = 0; q < 6; ++q)
        EXPECT_EQ(a.verify(q).verdict, b.verify(q).verdict)
            << "qubit " << q;
}

TEST_P(EngineProperty, CleanAncillaSessionMatchesWrapper)
{
    Rng rng(GetParam() + 8000);
    const Circuit c = randomCircuit(rng, 6, 12);
    VerificationEngine engine(c);
    for (std::uint32_t q = 0; q < 6; ++q) {
        EXPECT_EQ(verifyCleanAncilla(c, q).verdict,
                  engine.verifyCleanAncilla(q).verdict)
            << "qubit " << q;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty,
                         ::testing::Range(0, 25));

} // namespace
} // namespace qb::core
