/**
 * @file
 * Tests for the Tseitin encoder: satisfiability equivalence against
 * direct evaluation of the source formula, and the shape of the XOR
 * chains.
 */

#include <gtest/gtest.h>

#include "boolexpr/arena.h"
#include "sat/solver.h"
#include "sat/tseitin.h"
#include "support/rng.h"

namespace qb::sat {
namespace {

using bexp::Arena;
using bexp::NodeRef;

/** Does any assignment over the support satisfy the formula? */
bool
bruteForceFormulaSat(const Arena &arena, NodeRef root,
                     std::uint32_t num_vars)
{
    for (std::uint32_t bits = 0; bits < (1u << num_vars); ++bits) {
        std::vector<bool> env(num_vars);
        for (std::uint32_t v = 0; v < num_vars; ++v)
            env[v] = (bits >> v) & 1;
        if (arena.evaluate(root, env))
            return true;
    }
    return false;
}

TEST(Tseitin, ConstantRootsShortCircuit)
{
    Arena a;
    auto enc_true = encodeAssertTrue(a, bexp::kTrue);
    EXPECT_TRUE(enc_true.rootIsConst);
    EXPECT_TRUE(enc_true.rootConstValue);
    auto enc_false = encodeAssertTrue(a, bexp::kFalse);
    EXPECT_TRUE(enc_false.rootIsConst);
    EXPECT_FALSE(enc_false.rootConstValue);
}

TEST(Tseitin, SingleVariable)
{
    Arena a;
    auto enc = encodeAssertTrue(a, a.mkVar(0));
    EXPECT_FALSE(enc.rootIsConst);
    Solver s;
    s.addCnf(enc.cnf);
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_EQ(LBool::True, s.modelValue(enc.inputVar.at(0)));
}

TEST(Tseitin, NegatedVariable)
{
    Arena a;
    auto enc = encodeAssertTrue(a, a.mkNot(a.mkVar(0)));
    Solver s;
    s.addCnf(enc.cnf);
    EXPECT_EQ(SolveResult::Sat, s.solve());
    EXPECT_EQ(LBool::False, s.modelValue(enc.inputVar.at(0)));
}

TEST(Tseitin, ContradictionIsUnsat)
{
    Arena a;
    const NodeRef x = a.mkVar(0);
    // x AND NOT x does not fold structurally (AND over distinct
    // nodes), so the solver must derive UNSAT.
    const NodeRef f = a.mkAnd({x, a.mkNot(x)});
    auto enc = encodeAssertTrue(a, f);
    if (enc.rootIsConst) {
        EXPECT_FALSE(enc.rootConstValue);
    } else {
        EXPECT_EQ(SolveResult::Unsat, solveCnf(enc.cnf));
    }
}

TEST(Tseitin, WideXorChainsSplit)
{
    Arena a;
    std::vector<NodeRef> vars;
    for (std::uint32_t v = 0; v < 9; ++v)
        vars.push_back(a.mkVar(v));
    const NodeRef f = a.mkXor(vars);
    auto enc = encodeAssertTrue(a, f);
    // A chain of eight two-input definitions, four clauses each, plus
    // the root unit.
    EXPECT_EQ(9 + 8, enc.cnf.numVars());
    EXPECT_EQ(8u * 4 + 1, enc.cnf.numClauses());
    Solver s;
    s.addCnf(enc.cnf);
    ASSERT_EQ(SolveResult::Sat, s.solve());
    // Model must have odd parity over the nine inputs.
    int ones = 0;
    for (std::uint32_t v = 0; v < 9; ++v)
        ones += s.modelValue(enc.inputVar.at(v)) == LBool::True;
    EXPECT_EQ(1, ones % 2);
}

class TseitinProperty : public ::testing::TestWithParam<int>
{};

/** Random formula builder over num_vars variables. */
NodeRef
randomFormula(Arena &arena, Rng &rng, std::uint32_t num_vars,
              int depth)
{
    if (depth == 0 || rng.nextBool(0.25)) {
        return arena.mkVar(
            static_cast<std::uint32_t>(rng.nextBelow(num_vars)));
    }
    const NodeRef l = randomFormula(arena, rng, num_vars, depth - 1);
    const NodeRef r = randomFormula(arena, rng, num_vars, depth - 1);
    switch (rng.nextBelow(4)) {
      case 0:  return arena.mkAnd({l, r});
      case 1:  return arena.mkXor({l, r});
      case 2:  return arena.mkOr({l, r});
      default: return arena.mkNot(l);
    }
}

TEST_P(TseitinProperty, FullEncodingMatchesBruteForce)
{
    Rng rng(GetParam());
    Arena arena;
    constexpr std::uint32_t num_vars = 6;
    const NodeRef f = randomFormula(arena, rng, num_vars, 6);
    const bool expected = bruteForceFormulaSat(arena, f, num_vars);
    auto enc = encodeAssertTrue(arena, f);
    const bool got = enc.rootIsConst
        ? enc.rootConstValue
        : solveCnf(enc.cnf) == SolveResult::Sat;
    EXPECT_EQ(expected, got);
}

TEST_P(TseitinProperty, SatModelEvaluatesFormulaTrue)
{
    Rng rng(GetParam() + 777);
    Arena arena;
    constexpr std::uint32_t num_vars = 6;
    const NodeRef f = randomFormula(arena, rng, num_vars, 5);
    auto enc = encodeAssertTrue(arena, f);
    if (enc.rootIsConst)
        return;
    Solver s;
    s.addCnf(enc.cnf);
    if (s.solve() != SolveResult::Sat)
        return;
    std::vector<bool> env(num_vars, false);
    for (const auto &[input, var] : enc.inputVar)
        env[input] = s.modelValue(var) == LBool::True;
    EXPECT_TRUE(arena.evaluate(f, env));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TseitinProperty,
                         ::testing::Range(0, 30));

} // namespace
} // namespace qb::sat
