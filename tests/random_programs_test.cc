/**
 * @file
 * Whole-system property tests on randomly generated programs:
 *
 *  - random QBorrow source text through the full text -> parse ->
 *    elaborate -> verify pipeline, cross-checked per dirty qubit
 *    against the brute-force oracle on the lifetime slice;
 *  - random semantics-level programs validating Theorem 5.5
 *    (safe <=> deterministic) and the definitional equivalence of
 *    safelyUncomputes with per-operation identity checks.
 */

#include <gtest/gtest.h>

#include "circuits/qbr_text.h"
#include "core/reference.h"
#include "core/verifier.h"
#include "lang/elaborate.h"
#include "semantics/interp.h"
#include "semantics/safety.h"
#include "support/rng.h"

namespace qb {
namespace {

class RandomPipeline : public ::testing::TestWithParam<int>
{};

TEST_P(RandomPipeline, VerdictMatchesBruteForceOnLifetimeSlice)
{
    // The default RandomQbrOptions reproduce the distribution this
    // suite has always used; the generator itself now lives in
    // circuits/qbr_text.h, shared with the differential fuzz harness.
    Rng rng(GetParam() * 7919 + 13);
    const std::string src = circuits::randomQbrSource(rng);
    const auto prog = lang::elaborateSource(src);
    const auto result = core::verifyProgram(prog);
    for (const auto &r : result.qubits) {
        const auto &info = prog.qubits[r.qubit];
        const ir::Circuit scope =
            prog.circuit.slice(info.scopeBegin, info.scopeEnd);
        EXPECT_EQ(core::bruteForceVerdict(scope, r.qubit),
                  r.verdict)
            << "source:\n"
            << src;
        EXPECT_EQ(core::anfVerdict(scope, r.qubit), r.verdict);
        EXPECT_EQ(core::unitaryVerdict(scope, r.qubit), r.verdict);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipeline,
                         ::testing::Range(0, 30));

/** Random semantics-level statement over a small universe. */
sem::StmtPtr
randomSemStmt(Rng &rng, int depth, bool allow_borrow)
{
    const auto rand_q = [&rng](std::uint32_t n) {
        return sem::Operand::q(
            static_cast<ir::QubitId>(rng.nextBelow(n)));
    };
    constexpr std::uint32_t kConcrete = 2; // qubits 0..1 concrete
    if (depth == 0 || rng.nextBool(0.3)) {
        switch (rng.nextBelow(4)) {
          case 0:
            return sem::gateX(rand_q(kConcrete));
          case 1:
            return sem::gateH(rand_q(kConcrete));
          case 2: {
            auto a = rand_q(kConcrete);
            auto b = sem::Operand::q(a.qubit == 0 ? 1 : 0);
            return sem::gateCnot(a, b);
          }
          default:
            return sem::init(rand_q(kConcrete));
        }
    }
    switch (rng.nextBelow(allow_borrow ? 4 : 3)) {
      case 0:
        return sem::seq(randomSemStmt(rng, depth - 1, allow_borrow),
                        randomSemStmt(rng, depth - 1, allow_borrow));
      case 1:
        return sem::ifM(rand_q(kConcrete),
                        randomSemStmt(rng, depth - 1, allow_borrow),
                        randomSemStmt(rng, depth - 1, allow_borrow));
      case 2:
        return sem::skip();
      default: {
        // A borrow whose body uses the placeholder.
        const auto ph = sem::Operand::ph("r");
        sem::StmtPtr body;
        if (rng.nextBool()) {
            // Toggling pattern: safe.
            body = sem::seqAll(
                {sem::gateCnot(sem::Operand::q(0), ph),
                 sem::gateCnot(ph, sem::Operand::q(1)),
                 sem::gateCnot(sem::Operand::q(0), ph),
                 sem::gateCnot(ph, sem::Operand::q(1))});
        } else {
            // Bare write: unsafe.
            body = sem::gateX(ph);
        }
        return sem::borrow("r", body);
      }
    }
}

class RandomSemantics : public ::testing::TestWithParam<int>
{};

TEST_P(RandomSemantics, SafeIffDeterministic)
{
    // Theorem 5.5, evaluated over two universe sizes as a proxy for
    // "arbitrarily large qubits".
    Rng rng(GetParam() * 104729 + 7);
    const auto s = randomSemStmt(rng, 3, true);
    sem::InterpOptions small_opts, large_opts;
    small_opts.numQubits = 4;
    large_opts.numQubits = 5;
    small_opts.maxSetSize = large_opts.maxSetSize = 512;
    const bool safe = sem::programIsSafe(s, large_opts);
    const bool det_small = sem::isDeterministic(s, small_opts);
    const bool det_large = sem::isDeterministic(s, large_opts);
    if (safe) {
        EXPECT_TRUE(det_small);
        EXPECT_TRUE(det_large);
    }
    // The converse direction of Theorem 5.5 holds only up to
    // measure-zero contexts: an unsafe borrow sitting in a dead
    // measurement branch contributes the zero operation for every
    // instantiation, so determinism does not certify safety (see
    // DeadBranchBorrow below).  Only the contrapositive is asserted:
    if (!det_large) {
        EXPECT_FALSE(safe);
    }
}

TEST(TheoremEdgeCases, DeadBranchBorrowIsDeterministicYetUnsafe)
{
    // if M[q0] then skip else (if M[q0] then (borrow r; X[r]) ...):
    // the inner then-branch re-measures q0 and can never fire, so all
    // instantiations of the unsafe borrow coincide (the zero map) and
    // |[[S]]| = 1 although the borrow is not safely uncomputing.
    // This pins a corner of Theorem 5.5's <= direction: its proof
    // needs executions that actually reach the borrow.
    const auto q0 = sem::Operand::q(0);
    const auto dead = sem::ifM(
        q0, sem::skip(),
        sem::ifM(q0, sem::borrow("r", sem::gateX(sem::Operand::ph("r"))),
                 sem::skip()));
    sem::InterpOptions o;
    o.numQubits = 4;
    EXPECT_TRUE(sem::isDeterministic(dead, o));
    EXPECT_FALSE(sem::programIsSafe(dead, o));
}

TEST_P(RandomSemantics, SafelyUncomputesMatchesPerOpIdentity)
{
    Rng rng(GetParam() * 31337 + 99);
    const auto s = randomSemStmt(rng, 3, false);
    sem::InterpOptions o;
    o.numQubits = 3;
    const auto set = sem::interpret(s, o);
    for (std::uint32_t q = 0; q < o.numQubits; ++q) {
        bool all_identity = true;
        for (const auto &op : set.ops)
            all_identity &= sem::opActsAsIdentityOn(op, q);
        EXPECT_EQ(all_identity, sem::safelyUncomputes(s, q, o));
        // Theorem 6.1: state check == Bell check, per operation.
        for (const auto &op : set.ops)
            EXPECT_EQ(sem::opActsAsIdentityOn(op, q),
                      sem::opPreservesBellPair(op, q));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSemantics,
                         ::testing::Range(0, 12));

} // namespace
} // namespace qb
