/**
 * @file
 * End-to-end integration tests: QBorrow source text through parse ->
 * elaborate -> verify, on the paper's benchmark programs at small
 * sizes, with both solver presets; plus cross-module consistency
 * between the language path and the circuit-generator path.
 */

#include <gtest/gtest.h>

#include "circuits/adders.h"
#include "circuits/mcx.h"
#include "circuits/paper_figures.h"
#include "circuits/qbr_text.h"
#include "core/reference.h"
#include "core/verifier.h"
#include "lang/elaborate.h"
#include "support/logging.h"

namespace qb {
namespace {

class AdderPipeline : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(AdderPipeline, AllDirtyQubitsVerifySafe)
{
    const std::uint32_t n = GetParam();
    const auto prog =
        lang::elaborateSource(circuits::adderQbrSource(n));
    EXPECT_EQ(2 * n - 1, prog.circuit.numQubits());
    const core::ProgramResult result = core::verifyProgram(prog);
    EXPECT_EQ(n - 1, result.qubits.size());
    EXPECT_TRUE(result.allSafe()) << result.summary();
    for (const auto &r : result.qubits)
        EXPECT_EQ(core::FailedCondition::None, r.failed);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AdderPipeline,
                         ::testing::Values(3, 5, 8, 12, 16));

class McxPipeline : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(McxPipeline, AncillaVerifiesSafeBothPresets)
{
    const std::uint32_t m = GetParam();
    const auto prog =
        lang::elaborateSource(circuits::mcxQbrSource(m));
    // Bounded variable elimination in the direct solve on and off.
    for (const bool bve : {true, false}) {
        core::VerifierOptions options;
        options.solver.preprocess = bve;
        const core::ProgramResult result =
            core::verifyProgram(prog, options);
        ASSERT_EQ(1u, result.qubits.size());
        EXPECT_EQ(core::Verdict::Safe, result.qubits[0].verdict);
        EXPECT_EQ("anc", result.qubits[0].name);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, McxPipeline,
                         ::testing::Values(4, 6, 10));

TEST(Pipeline, McxScopeEndsAtRelease)
{
    const auto prog =
        lang::elaborateSource(circuits::mcxQbrSource(5));
    const auto dirty =
        prog.qubitsWithRole(lang::QubitRole::BorrowVerify);
    ASSERT_EQ(1u, dirty.size());
    const auto &info = prog.qubits[dirty[0]];
    EXPECT_EQ("anc", info.name);
    // The release happens before the end of the program.
    EXPECT_LT(info.scopeEnd, prog.circuit.size());
    EXPECT_EQ(circuits::gidneyMcxAncillaRelease(5), info.scopeEnd);
}

TEST(Pipeline, MutatedAdderIsCaught)
{
    // Drop the final gate of the uncompute sweep: a[1] (or some
    // ancilla) is no longer restored, and verification must notice.
    const std::uint32_t n = 6;
    auto prog = lang::elaborateSource(circuits::adderQbrSource(n));
    const ir::Circuit broken =
        prog.circuit.slice(0, prog.circuit.size() - 1);
    bool any_unsafe = false;
    for (std::uint32_t i = 1; i <= n - 1; ++i) {
        const ir::QubitId a = n + i - 1;
        const auto r = core::verifyQubit(broken, a);
        const auto brute = core::bruteForceVerdict(broken, a);
        EXPECT_EQ(brute, r.verdict) << "a[" << i << "]";
        any_unsafe |= r.verdict == core::Verdict::Unsafe;
    }
    EXPECT_TRUE(any_unsafe);
}

TEST(Pipeline, MutatedMcxIsCaught)
{
    const std::uint32_t m = 4;
    const auto prog =
        lang::elaborateSource(circuits::mcxQbrSource(m));
    // Remove one gate inside anc's scope.
    const auto dirty =
        prog.qubitsWithRole(lang::QubitRole::BorrowVerify);
    const auto &info = prog.qubits[dirty[0]];
    ir::Circuit broken(prog.circuit.numQubits());
    for (std::size_t i = 0; i < info.scopeEnd; ++i)
        if (i != info.scopeBegin) // drop the first scope gate
            broken.append(prog.circuit.gates()[i]);
    const auto r = core::verifyQubit(broken, dirty[0]);
    EXPECT_EQ(core::Verdict::Unsafe, r.verdict);
    EXPECT_EQ(core::bruteForceVerdict(broken, dirty[0]), r.verdict);
}

TEST(Pipeline, AdderVerifierStatsScaleSensibly)
{
    // Formula construction is a linear scan (Section 6.2): the per-
    // qubit formula node count grows with n but stays polynomial.
    const auto small =
        core::verifyProgram(lang::elaborateSource(
            circuits::adderQbrSource(4)));
    const auto large =
        core::verifyProgram(lang::elaborateSource(
            circuits::adderQbrSource(8)));
    ASSERT_FALSE(small.qubits.empty());
    ASSERT_FALSE(large.qubits.empty());
    auto total = [](const core::ProgramResult &r) {
        std::size_t nodes = 0;
        for (const auto &q : r.qubits)
            nodes += q.formulaNodes;
        return nodes;
    };
    EXPECT_GT(total(large), total(small));
}

TEST(Pipeline, Fig44ProgramVerifiesPerQubit)
{
    const auto prog =
        lang::elaborateSource(circuits::fig44Source());
    const core::ProgramResult result = core::verifyProgram(prog);
    // Both ancillas follow the Fig 1.3 toggling pattern and are
    // safely uncomputed over their lifetimes.
    ASSERT_EQ(2u, result.qubits.size());
    EXPECT_TRUE(result.allSafe()) << result.summary();
}

TEST(Pipeline, Example52ProgramQubitRoles)
{
    const auto prog =
        lang::elaborateSource(circuits::example52Source());
    const core::ProgramResult result = core::verifyProgram(prog);
    // The borrow of a is unsafe (a bare X[a] in its scope).
    ASSERT_EQ(1u, result.qubits.size());
    EXPECT_EQ("a", result.qubits[0].name);
    EXPECT_EQ(core::Verdict::Unsafe, result.qubits[0].verdict);
    // But q, had it been borrowed, is restored: verify directly.
    const auto r = core::verifyQubit(prog.circuit, 0);
    EXPECT_EQ(core::Verdict::Safe, r.verdict);
}

TEST(Pipeline, SolverPresetsAgreeOnBenchmarks)
{
    for (std::uint32_t n : {4u, 7u}) {
        const auto prog =
            lang::elaborateSource(circuits::adderQbrSource(n));
        // Bounded variable elimination in the direct solve off and on.
        core::VerifierOptions no_bve;
        no_bve.solver.preprocess = false;
        const auto rb = core::verifyProgram(prog, no_bve);
        const auto rs = core::verifyProgram(prog);
        ASSERT_EQ(rb.qubits.size(), rs.qubits.size());
        for (std::size_t i = 0; i < rb.qubits.size(); ++i)
            EXPECT_EQ(rb.qubits[i].verdict, rs.qubits[i].verdict);
    }
}

TEST(Pipeline, VerifySourceConvenienceWrapper)
{
    const auto result =
        core::verifySource(circuits::adderQbrSource(4));
    EXPECT_TRUE(result.allSafe());
}

TEST(Pipeline, BadSourceSurfacesLocatedErrors)
{
    EXPECT_THROW(core::verifySource("borrow a; X[b];"),
                 FatalError);
}

} // namespace
} // namespace qb
