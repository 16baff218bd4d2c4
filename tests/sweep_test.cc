/**
 * @file
 * SAT sweeping (sat/sweep.h): soundness against brute force, the
 * adder's (6.2) miters, determinism, the stop flag and the conflict
 * budget.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <unordered_map>
#include <vector>

#include "circuits/qbr_text.h"
#include "core/engine.h"
#include "core/formula_builder.h"
#include "lang/elaborate.h"
#include "sat/sweep.h"
#include "support/rng.h"

namespace qb::sat {
namespace {

using bexp::Arena;
using bexp::NodeKind;
using bexp::NodeRef;

/** Every integer counter of @p s, for exact comparisons. */
std::vector<std::int64_t>
counters(const SolverStats &s)
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

/**
 * Truth table of @p root over variables 0..n-1, 64 assignments per
 * word (assignment a sets variable v to bit v of a).
 */
std::vector<std::uint64_t>
truthTable(const Arena &arena, NodeRef root, unsigned n)
{
    const std::size_t words = ((std::size_t{1} << n) + 63) / 64;
    std::unordered_map<NodeRef, std::vector<std::uint64_t>> memo;
    std::vector<std::pair<NodeRef, bool>> stack{{root, false}};
    while (!stack.empty()) {
        const auto [ref, expanded] = stack.back();
        stack.pop_back();
        if (memo.count(ref))
            continue;
        std::vector<std::uint64_t> table(words, 0);
        const NodeKind k = arena.kind(ref);
        if (k == NodeKind::Const) {
            if (arena.constValue(ref))
                table.assign(words, ~0ULL);
        } else if (k == NodeKind::Var) {
            const unsigned v = arena.varId(ref);
            for (std::size_t a = 0; a < (std::size_t{1} << n); ++a)
                if ((a >> v) & 1)
                    table[a / 64] |= 1ULL << (a % 64);
        } else if (!expanded) {
            stack.emplace_back(ref, true);
            for (NodeRef c : arena.children(ref))
                stack.emplace_back(c, false);
            continue;
        } else {
            const bool conj = k == NodeKind::And;
            table.assign(words, conj ? ~0ULL : 0);
            for (NodeRef c : arena.children(ref))
                for (std::size_t w = 0; w < words; ++w)
                    table[w] = conj ? table[w] & memo.at(c)[w]
                                    : table[w] ^ memo.at(c)[w];
        }
        memo.emplace(ref, std::move(table));
    }
    std::vector<std::uint64_t> out = memo.at(root);
    if (n < 6)
        out[0] &= (1ULL << (std::size_t{1} << n)) - 1;
    return out;
}

bool
neverTrue(const Arena &arena, NodeRef root, unsigned n)
{
    for (std::uint64_t w : truthTable(arena, root, n))
        if (w != 0)
            return false;
    return true;
}

/**
 * A random formula over @p n variables, built twice: directly, and
 * through identities that hash-consing does not see through
 * (a&b = (a&b&y) ^ (a&b&~y), a^b = (a&~b) | (~a&b),
 * a|b = a^b^(a&b)), so the pair is equal but not the same DAG.
 */
struct Twin
{
    NodeRef direct;
    NodeRef rewritten;
};

Twin
randomTwin(Arena &arena, Rng &rng, unsigned n, int depth)
{
    if (depth == 0 || rng.nextBelow(4) == 0) {
        const NodeRef v =
            arena.mkVar(static_cast<std::uint32_t>(rng.nextBelow(n)));
        return {v, v};
    }
    const auto op = rng.nextBelow(4);
    if (op == 0) {
        const Twin a = randomTwin(arena, rng, n, depth - 1);
        return {arena.mkNot(a.direct), arena.mkNot(a.rewritten)};
    }
    const Twin a = randomTwin(arena, rng, n, depth - 1);
    const Twin b = randomTwin(arena, rng, n, depth - 1);
    const NodeRef x = a.rewritten, y = b.rewritten;
    const bool alt = rng.nextBool();
    if (op == 1) {
        const NodeRef split =
            arena.mkVar(static_cast<std::uint32_t>(rng.nextBelow(n)));
        return {arena.mkAnd({a.direct, b.direct}),
                alt ? arena.mkXor({arena.mkAnd({x, y, split}),
                                   arena.mkAnd({x, y, arena.mkNot(split)})})
                    : arena.mkAnd({x, y})};
    }
    if (op == 2) {
        return {arena.mkXor({a.direct, b.direct}),
                alt ? arena.mkOr({arena.mkAnd({x, arena.mkNot(y)}),
                                  arena.mkAnd({arena.mkNot(x), y})})
                    : arena.mkXor({x, y})};
    }
    return {arena.mkOr({a.direct, b.direct}),
            alt ? arena.mkXor({x, y, arena.mkAnd({x, y})})
                : arena.mkOr({x, y})};
}

TEST(Sweep, UnsatAnswersAgreeWithBruteForce)
{
    // Miters of equal twins (Unsat), of two unrelated formulas
    // (usually Sat), and near misses: f & ~(g & ~m) for a twin g of f
    // and a full minterm m, where g & ~m matches f on every assignment
    // but one, so simulation pairs them and only a proof in both
    // directions may merge them.  Every Unsat the sweeper claims must
    // hold on all 2^n assignments, and it must settle most of the equal
    // miters on its own.
    Rng rng(19);
    int tested = 0, equal_miters = 0, equal_swept = 0;
    for (int round = 0; round < 4000; ++round) {
        Arena arena;
        const auto shape = round % 4;
        const unsigned n = shape == 3
            ? 12
            : 2 + static_cast<unsigned>(rng.nextBelow(11));
        const int depth = 2 + static_cast<int>(rng.nextBelow(4));
        const Twin t = randomTwin(arena, rng, n, depth);
        NodeRef root;
        if (shape == 0) {
            root = arena.mkXor({t.direct, t.rewritten});
        } else if (shape == 1) {
            const Twin other = randomTwin(arena, rng, n, depth);
            root = arena.mkXor({t.direct, other.rewritten});
        } else if (shape == 2) {
            root = arena.mkAnd({t.direct, arena.mkNot(t.rewritten)});
        } else {
            std::vector<NodeRef> minterm;
            for (std::uint32_t v = 0; v < n; ++v) {
                const NodeRef x = arena.mkVar(v);
                minterm.push_back(rng.nextBool() ? x : arena.mkNot(x));
            }
            const NodeRef m = arena.mkAnd(std::move(minterm));
            root = arena.mkAnd(
                {t.direct,
                 arena.mkNot(arena.mkAnd({t.rewritten, arena.mkNot(m)}))});
        }
        if (arena.isConst(root))
            continue;
        ++tested;
        const SweepResult r =
            sweep(arena, root, -1, nullptr);
        const bool unsat = neverTrue(arena, root, n);
        if (r.result == SolveResult::Unsat) {
            EXPECT_TRUE(unsat) << "round " << round << ": "
                               << arena.toString(root);
            EXPECT_EQ(1, r.stats.sweptConditions);
        } else {
            EXPECT_EQ(SolveResult::Unknown, r.result);
            EXPECT_EQ(0, r.stats.sweptConditions);
        }
        if (shape == 0 || shape == 2) {
            ++equal_miters;
            equal_swept += r.result == SolveResult::Unsat;
        }
    }
    EXPECT_GE(tested, 2000);
    EXPECT_GE(equal_swept * 10, equal_miters * 9)
        << equal_swept << " of " << equal_miters << " equal miters swept";
}

/** The non-constant (6.2) conditions of adderQbrSource(@p n)'s dirty
 *  qubits, built as the engine builds them, in one arena. */
std::vector<NodeRef>
adderPlusConditions(Arena &arena, std::uint32_t n)
{
    const auto program = lang::elaborateSource(circuits::adderQbrSource(n));
    const auto dirty =
        program.qubitsWithRole(lang::QubitRole::BorrowVerify);
    const lang::QubitInfo &info = program.qubits[dirty.front()];
    const ir::Circuit scope =
        program.circuit.slice(info.scopeBegin, info.scopeEnd);
    core::FormulaBuilder builder(arena, scope.numQubits());
    builder.applyCircuit(scope);
    std::vector<NodeRef> out;
    for (ir::QubitId q : dirty) {
        std::unordered_map<NodeRef, NodeRef> memo0, memo1;
        std::vector<NodeRef> diffs;
        for (std::uint32_t w = 0; w < scope.numQubits(); ++w) {
            if (w == q)
                continue;
            diffs.push_back(arena.mkXor(
                {arena.substitute(builder.formula(w), q, bexp::kFalse,
                                  memo0),
                 arena.substitute(builder.formula(w), q, bexp::kTrue,
                                  memo1)}));
        }
        const NodeRef plus = arena.mkOr(std::move(diffs));
        if (!arena.isConst(plus))
            out.push_back(plus);
    }
    return out;
}

/**
 * x >= @p c over input variables 0..width-1 (variable 0 the least
 * significant bit), as a ripple chain from the low bit.  Every prefix
 * holds on a large share of assignments when @p c mixes zeros and
 * ones, so no node of the chain is a constant candidate.
 */
NodeRef
atLeast(Arena &arena, std::uint32_t width, std::uint64_t c)
{
    NodeRef ge = bexp::kTrue; // the empty suffix: equal
    for (std::uint32_t k = 0; k < width; ++k) {
        const NodeRef x = arena.mkVar(k);
        ge = ((c >> k) & 1) != 0 ? arena.mkAnd({x, ge})
                                 : arena.mkOr({x, ge});
    }
    return ge;
}

TEST(Sweep, ProvesBothDirectionsBeforeMerging)
{
    // x >= c and x >= c + 1 differ only at x = c.  Built in that
    // order, each prefix of the second chain implies the matching
    // prefix of the first, its simulation-class representative, and
    // from some width on no simulation pattern tells the two apart.
    // No prefix is a constant candidate, so no other call finds
    // x = c either: only the second half of the equivalence check
    // (~node & representative) does.  A sweeper that proved one
    // direction would merge the chains and fold this satisfiable
    // miter to constant false.
    constexpr std::uint32_t width = 24;
    constexpr std::uint64_t c = 0xA5A5A5;
    Arena arena;
    const NodeRef ge_c = atLeast(arena, width, c);
    const NodeRef gt_c = atLeast(arena, width, c + 1);
    const NodeRef root = arena.mkAnd({ge_c, arena.mkNot(gt_c)});
    std::vector<bool> x_is_c(width);
    for (std::uint32_t k = 0; k < width; ++k)
        x_is_c[k] = ((c >> k) & 1) != 0;
    ASSERT_TRUE(arena.evaluate(root, x_is_c));
    const SweepResult r = sweep(arena, root, -1, nullptr);
    EXPECT_EQ(SolveResult::Unknown, r.result);
    EXPECT_EQ(0, r.stats.sweptConditions);
}

TEST(Sweep, FoldsEveryAdderPlusMiter)
{
    for (const std::uint32_t n : {24u, 60u}) {
        Arena arena;
        const std::vector<NodeRef> plus = adderPlusConditions(arena, n);
        EXPECT_GE(plus.size(), n - 2) << "n = " << n;
        for (NodeRef root : plus) {
            const SweepResult r = sweep(arena, root, -1,
                                        nullptr);
            EXPECT_EQ(SolveResult::Unsat, r.result) << "n = " << n;
            EXPECT_GE(r.stats.sweepMerges, 1) << "n = " << n;
        }
    }
}

TEST(Sweep, EngineNeedsNoDirectSolveOnTheAdder)
{
    // Every condition the engine queues for adder n = 24 and 60 -
    // whatever the static passes left over - is settled by the
    // sweeper: no condition falls back to the direct solve.
    for (const std::uint32_t n : {24u, 60u}) {
        const auto program =
            lang::elaborateSource(circuits::adderQbrSource(n));
        const auto dirty =
            program.qubitsWithRole(lang::QubitRole::BorrowVerify);
        const lang::QubitInfo &info = program.qubits[dirty.front()];
        core::EngineOptions options;
        options.jobs = 2;
        core::VerificationEngine engine(
            program.circuit.slice(info.scopeBegin, info.scopeEnd),
            options);
        for (ir::QubitId q : dirty)
            EXPECT_EQ(core::Verdict::Safe, engine.verify(q).verdict);
        EXPECT_GE(engine.stats().satCalls, n - 2);
        EXPECT_EQ(static_cast<std::int64_t>(engine.stats().satCalls),
                  engine.aggregateSolverStats().sweptConditions)
            << "n = " << n;
    }
}

TEST(Sweep, RepeatedSweepsAreIdentical)
{
    Arena arena;
    for (NodeRef root : adderPlusConditions(arena, 24)) {
        const SweepResult a =
            sweep(arena, root, -1, nullptr);
        const SweepResult b =
            sweep(arena, root, -1, nullptr);
        EXPECT_EQ(a.result, b.result);
        EXPECT_EQ(counters(a.stats), counters(b.stats));
        EXPECT_EQ(a.vars, b.vars);
        EXPECT_EQ(a.clauses, b.clauses);
    }
}

TEST(Sweep, VerifyAllIsIdenticalAtAnyJobs)
{
    for (const std::string &source :
         {circuits::adderQbrSource(24), circuits::mcxQbrSource(50),
          circuits::adderQbrSource(36)}) {
        const auto program = lang::elaborateSource(source);
        std::vector<core::ProgramResult> runs;
        for (const unsigned jobs : {1u, 4u, 1u, 4u}) {
            core::EngineOptions options;
            options.jobs = jobs;
            runs.push_back(core::verifyAll(program, options));
        }
        for (const core::ProgramResult &run : runs) {
            EXPECT_EQ(counters(runs[0].solverTotals),
                      counters(run.solverTotals));
            ASSERT_EQ(runs[0].qubits.size(), run.qubits.size());
            for (std::size_t i = 0; i < run.qubits.size(); ++i) {
                EXPECT_EQ(runs[0].qubits[i].verdict,
                          run.qubits[i].verdict);
                EXPECT_EQ(runs[0].qubits[i].conflicts,
                          run.qubits[i].conflicts);
                EXPECT_EQ(runs[0].qubits[i].counterexample,
                          run.qubits[i].counterexample);
            }
        }
        EXPECT_GT(runs[0].solverTotals.sweptConditions, 0);
    }
}

TEST(Sweep, SetStopFlagNeverYieldsUnsat)
{
    const std::atomic<bool> stop{true};
    Arena arena;
    for (NodeRef root : adderPlusConditions(arena, 24)) {
        const SweepResult r =
            sweep(arena, root, -1, &stop);
        EXPECT_NE(SolveResult::Unsat, r.result);
        EXPECT_EQ(0, r.stats.sweptConditions);
    }
    Rng rng(7);
    for (int round = 0; round < 200; ++round) {
        Arena local;
        const Twin t = randomTwin(local, rng, 8, 4);
        const NodeRef root = local.mkXor({t.direct, t.rewritten});
        if (local.isConst(root))
            continue;
        EXPECT_NE(SolveResult::Unsat,
                  sweep(local, root, -1, &stop)
                      .result);
    }
}

TEST(Sweep, ChargesAtMostTheAllowance)
{
    Arena arena;
    const std::vector<NodeRef> plus = adderPlusConditions(arena, 60);
    for (const std::int64_t k : {1, 2, 5, 17, 50, 120}) {
        for (NodeRef root : plus) {
            const SweepResult r =
                sweep(arena, root, k, nullptr);
            EXPECT_LE(r.stats.conflicts, k) << "allowance " << k;
        }
    }
}

TEST(Sweep, EngineChargesAtMostTheBudgetPerCondition)
{
    // The budget bounds a condition's sweep and direct solve together:
    // a qubit (two conditions) is charged at most twice the budget,
    // and an Unknown condition exactly its budget.
    const auto program =
        lang::elaborateSource(circuits::adderQbrSource(24));
    for (const std::int64_t k : {1, 3, 10, 40}) {
        core::EngineOptions options;
        options.lane.solver.conflictBudget = k;
        options.jobs = 2;
        for (const core::QubitResult &r :
             core::verifyAll(program, options).qubits) {
            EXPECT_LE(r.conflicts, 2 * k) << r.name << " budget " << k;
            if (r.verdict == core::Verdict::Unknown) {
                EXPECT_GE(r.conflicts, k) << r.name << " budget " << k;
            }
        }
    }
}

} // namespace
} // namespace qb::sat
