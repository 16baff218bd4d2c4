/**
 * @file
 * Tests for the Section 6.1 Boolean formula construction, including
 * the worked example of Figure 6.1 and a property suite comparing the
 * symbolic formulas against bit-level simulation on random circuits.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "core/formula_builder.h"
#include "sim/classical.h"
#include "support/logging.h"
#include "support/rng.h"

namespace qb::core {
namespace {

using bexp::Arena;
using bexp::NodeRef;
using ir::Circuit;
using ir::Gate;

TEST(FormulaBuilder, InitialStateIsVariables)
{
    Arena arena;
    FormulaBuilder fb(arena, 3);
    for (std::uint32_t q = 0; q < 3; ++q)
        EXPECT_EQ(arena.mkVar(q), fb.formula(q));
}

TEST(FormulaBuilder, XNegates)
{
    Arena arena;
    FormulaBuilder fb(arena, 1);
    fb.applyGate(Gate::x(0));
    EXPECT_EQ(arena.mkNot(arena.mkVar(0)), fb.formula(0));
    fb.applyGate(Gate::x(0));
    EXPECT_EQ(arena.mkVar(0), fb.formula(0));
}

TEST(FormulaBuilder, CnotXorsControlIntoTarget)
{
    Arena arena;
    FormulaBuilder fb(arena, 2);
    fb.applyGate(Gate::cnot(0, 1));
    EXPECT_EQ(arena.mkXor({arena.mkVar(0), arena.mkVar(1)}),
              fb.formula(1));
    EXPECT_EQ(arena.mkVar(0), fb.formula(0));
}

TEST(FormulaBuilder, SwapExchangesFormulas)
{
    Arena arena;
    FormulaBuilder fb(arena, 2);
    fb.applyGate(Gate::x(0));
    fb.applyGate(Gate::swap(0, 1));
    EXPECT_EQ(arena.mkNot(arena.mkVar(0)), fb.formula(1));
    EXPECT_EQ(arena.mkVar(1), fb.formula(0));
}

TEST(FormulaBuilder, Figure61Example)
{
    // The CCCNOT construction of Figure 1.3, tracked gate by gate as
    // in Figure 6.1.  Qubits: q1=0, q2=1, a=2, q3=3, q4=4.
    Arena arena;
    FormulaBuilder fb(arena, 5);
    const NodeRef q1 = arena.mkVar(0), q2 = arena.mkVar(1),
                  a = arena.mkVar(2), q3 = arena.mkVar(3),
                  q4 = arena.mkVar(4);

    fb.applyGate(Gate::ccnot(0, 1, 2)); // 1st gate
    EXPECT_EQ(arena.mkXor({a, arena.mkAnd({q1, q2})}),
              fb.formula(2));

    fb.applyGate(Gate::ccnot(2, 3, 4)); // 2nd gate
    const NodeRef a_mid = arena.mkXor({a, arena.mkAnd({q1, q2})});
    EXPECT_EQ(arena.mkXor({q4, arena.mkAnd({q3, a_mid})}),
              fb.formula(4));

    fb.applyGate(Gate::ccnot(0, 1, 2)); // 3rd gate: b_a collapses
    EXPECT_EQ(a, fb.formula(2));

    fb.applyGate(Gate::ccnot(2, 3, 4)); // 4th gate
    EXPECT_EQ(arena.mkXor({q4, arena.mkAnd({q3, a_mid}),
                           arena.mkAnd({q3, a})}),
              fb.formula(4));
    // The inputs q1..q3 stay untouched throughout.
    EXPECT_EQ(q1, fb.formula(0));
    EXPECT_EQ(q2, fb.formula(1));
    EXPECT_EQ(q3, fb.formula(3));
}

TEST(FormulaBuilder, RejectsNonClassicalGates)
{
    Arena arena;
    FormulaBuilder fb(arena, 1);
    EXPECT_THROW(fb.applyGate(Gate::h(0)), FatalError);
}

/** Random classical circuit over n qubits. */
Circuit
randomClassicalCircuit(Rng &rng, std::uint32_t n, int gates)
{
    Circuit c(n);
    for (int g = 0; g < gates; ++g) {
        switch (rng.nextBelow(4)) {
          case 0:
            c.append(
                Gate::x(static_cast<ir::QubitId>(rng.nextBelow(n))));
            break;
          case 1: {
            auto a = static_cast<ir::QubitId>(rng.nextBelow(n));
            auto b = static_cast<ir::QubitId>(rng.nextBelow(n));
            while (b == a)
                b = static_cast<ir::QubitId>(rng.nextBelow(n));
            c.append(Gate::cnot(a, b));
            break;
          }
          case 2: {
            auto a = static_cast<ir::QubitId>(rng.nextBelow(n));
            auto b = static_cast<ir::QubitId>(rng.nextBelow(n));
            auto t = static_cast<ir::QubitId>(rng.nextBelow(n));
            while (b == a)
                b = static_cast<ir::QubitId>(rng.nextBelow(n));
            while (t == a || t == b)
                t = static_cast<ir::QubitId>(rng.nextBelow(n));
            c.append(Gate::ccnot(a, b, t));
            break;
          }
          default: {
            auto a = static_cast<ir::QubitId>(rng.nextBelow(n));
            auto b = static_cast<ir::QubitId>(rng.nextBelow(n));
            while (b == a)
                b = static_cast<ir::QubitId>(rng.nextBelow(n));
            c.append(Gate::swap(a, b));
            break;
          }
        }
    }
    return c;
}

class FormulaProperty : public ::testing::TestWithParam<int>
{};

TEST_P(FormulaProperty, FormulasMatchSimulationOnAllInputs)
{
    Rng rng(GetParam());
    constexpr std::uint32_t n = 5;
    const Circuit c = randomClassicalCircuit(rng, n, 20);

    Arena arena;
    FormulaBuilder fb(arena, n);
    fb.applyCircuit(c);

    const sim::TruthTable table(c);
    for (std::uint64_t in = 0; in < (1u << n); ++in) {
        std::vector<bool> env(n);
        for (std::uint32_t q = 0; q < n; ++q)
            env[q] = (in >> (n - 1 - q)) & 1;
        for (std::uint32_t q = 0; q < n; ++q) {
            EXPECT_EQ(table.output(q, in),
                      arena.evaluate(fb.formula(q), env))
                << "input " << in << " qubit " << q;
        }
    }
}

TEST_P(FormulaProperty, CircuitFollowedByInverseGivesIdentity)
{
    Rng rng(GetParam() + 300);
    constexpr std::uint32_t n = 5;
    Circuit c = randomClassicalCircuit(rng, n, 15);
    c.appendCircuit(c.inverse());

    Arena arena;
    FormulaBuilder fb(arena, n);
    fb.applyCircuit(c);
    // Hash-consed cancellation must reduce every formula back to its
    // input variable.
    for (std::uint32_t q = 0; q < n; ++q)
        EXPECT_EQ(arena.mkVar(q), fb.formula(q));
}

TEST_P(FormulaProperty, SharedMemoCofactorSweepMatchesPerCallPath)
{
    // The (6.2) sweep cofactors every wire through one memo per value;
    // over a hash-consed arena that must yield the NodeRef the
    // per-call substitute() path yields, and build no node that path
    // would not.  Memo path first: the per-call path must then find
    // every node it needs already interned.
    Rng rng(GetParam() + 600);
    constexpr std::uint32_t n = 7;
    const Circuit c = randomClassicalCircuit(rng, n, 30);
    Arena arena;
    FormulaBuilder fb(arena, n);
    fb.applyCircuit(c);
    const auto plus = [&](std::uint32_t q, bool shared) {
        std::unordered_map<NodeRef, NodeRef> memo0, memo1;
        std::vector<NodeRef> disjuncts;
        for (std::uint32_t other = 0; other < n; ++other) {
            if (other == q)
                continue;
            const NodeRef b = fb.formula(other);
            const NodeRef cof0 =
                shared ? arena.substitute(b, q, bexp::kFalse, memo0)
                       : arena.substitute(b, q, bexp::kFalse);
            const NodeRef cof1 =
                shared ? arena.substitute(b, q, bexp::kTrue, memo1)
                       : arena.substitute(b, q, bexp::kTrue);
            disjuncts.push_back(arena.mkXor({cof0, cof1}));
        }
        return arena.mkOr(std::move(disjuncts));
    };
    for (std::uint32_t q = 0; q < n; ++q) {
        const NodeRef shared = plus(q, true);
        const std::size_t nodes = arena.numNodes();
        EXPECT_EQ(shared, plus(q, false)) << "qubit " << q;
        EXPECT_EQ(nodes, arena.numNodes()) << "qubit " << q;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormulaProperty,
                         ::testing::Range(0, 30));

} // namespace
} // namespace qb::core
