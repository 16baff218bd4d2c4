/**
 * @file
 * Tests for the static analysis subsystem (src/analysis/):
 *
 *  - unit tests for the dataflow engine and its three lattice domains
 *    (GF(2)-affine, constants, backward liveness), gate by gate;
 *  - unit tests for the four dischargers (support, mirror, affine,
 *    permutation), including near-miss circuits that must NOT
 *    discharge;
 *  - soundness cross-checks: verdicts with analysis enabled must be
 *    identical to SAT-only verdicts, on hand-built circuits and on
 *    randomly generated programs up to width 64;
 *  - golden-diagnostic tests for the lint driver, asserting exact
 *    line/column/rule/severity;
 *  - the serving-tier options fingerprint covering every
 *    AnalysisOptions field (with a compile-time size witness).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/analyzer.h"
#include "analysis/dataflow.h"
#include "analysis/lint.h"
#include "analysis/mirror.h"
#include "analysis/permutation.h"
#include "analysis/support.h"
#include "circuits/qbr_text.h"
#include "core/engine.h"
#include "core/report.h"
#include "core/verifier.h"
#include "lang/elaborate.h"
#include "serving/serving.h"
#include "support/rng.h"
#include "support/strings.h"

namespace qb::analysis {
namespace {

using ir::Circuit;
using ir::Gate;

// ------------------------------------------------------------ support

TEST(Support, CnotTransfersControlSupportToTarget)
{
    Circuit c(3);
    c.append(Gate::cnot(0, 1));
    const SupportSets s = supportsOf(c);
    EXPECT_FALSE(s.poisoned());
    EXPECT_TRUE(s.mayDependOn(1, 0));
    EXPECT_TRUE(s.mayDependOn(1, 1));
    EXPECT_FALSE(s.mayDependOn(0, 1)); // control unchanged
    EXPECT_FALSE(s.mayDependOn(2, 0)); // untouched wire
}

TEST(Support, SwapExchangesSupportRows)
{
    Circuit c(3);
    c.append(Gate::cnot(0, 1)); // wire 1 depends on {0, 1}
    c.append(Gate::swap(1, 2));
    const SupportSets s = supportsOf(c);
    EXPECT_TRUE(s.mayDependOn(2, 0));
    EXPECT_TRUE(s.mayDependOn(2, 1));
    EXPECT_FALSE(s.mayDependOn(1, 0)); // old wire-2 value: just {2}
    EXPECT_TRUE(s.mayDependOn(1, 2));
}

TEST(Support, NonClassicalGatePoisonsAllFacts)
{
    Circuit c(2);
    c.append(Gate::h(0));
    const SupportSets s = supportsOf(c);
    EXPECT_TRUE(s.poisoned());
    // Poisoned answers are conservative: everything may depend on
    // everything.
    EXPECT_TRUE(s.mayDependOn(1, 0));
}

TEST(Support, DischargesPlusForUntouchedQubit)
{
    Circuit c(3);
    c.append(Gate::cnot(0, 1));
    // No other output depends on input 2: (6.2) discharged.
    EXPECT_TRUE(supportDischargesPlus(c, 2));
    // Wire 1 depends on input 0: not discharged for qubit 0.
    EXPECT_FALSE(supportDischargesPlus(c, 0));
}

TEST(Support, DischargesZeroOnlyWhenNeverWritten)
{
    Circuit c(2);
    c.append(Gate::cnot(0, 1));
    EXPECT_TRUE(supportDischargesZero(c, 0));
    EXPECT_FALSE(supportDischargesZero(c, 1));
}

// ------------------------------------------- dataflow: affine domain

TEST(AffineDataflow, XTogglesTheConstantBit)
{
    AffineState s(2);
    EXPECT_TRUE(s.isIdentity(0));
    s.applyGate(Gate::x(0));
    EXPECT_FALSE(s.isIdentity(0));
    EXPECT_FALSE(s.isTop(0));
    EXPECT_FALSE(s.constantOf(0).has_value()); // q0 ^ 1, not const
    EXPECT_TRUE(s.mayDependOn(0, 0));
    s.applyGate(Gate::x(0));
    EXPECT_TRUE(s.isIdentity(0)); // X is self-inverse in the domain
}

TEST(AffineDataflow, CnotXorCancelsExactly)
{
    AffineState s(2);
    s.applyGate(Gate::cnot(0, 1));
    EXPECT_TRUE(s.mayDependOn(1, 0));
    EXPECT_TRUE(s.mayDependOn(1, 1));
    EXPECT_FALSE(s.mayDependOn(0, 1)); // control untouched
    // Unlike the support over-approximation, the second application
    // CANCELS the contribution: rows are exact.
    s.applyGate(Gate::cnot(0, 1));
    EXPECT_TRUE(s.isIdentity(1));
    EXPECT_FALSE(s.mayDependOn(1, 0));
}

TEST(AffineDataflow, SeededConstantControlsSimplifyToffoli)
{
    // Control seeded |0>: the gate provably never fires.
    AffineState dead(3);
    dead.seedConstant(0, false);
    ASSERT_EQ(std::optional<bool>(false), dead.constantOf(0));
    dead.applyGate(Gate::ccnot(0, 1, 2));
    EXPECT_TRUE(dead.isIdentity(2));
    EXPECT_FALSE(dead.anyTop());

    // Control seeded |1>: drops out, CCNOT degenerates to CNOT.
    AffineState one(3);
    one.seedConstant(0, true);
    one.applyGate(Gate::ccnot(0, 1, 2));
    EXPECT_FALSE(one.isTop(2));
    EXPECT_TRUE(one.mayDependOn(2, 1));

    // Both controls |1>: degenerates all the way to X.
    AffineState both(3);
    both.seedConstant(0, true);
    both.seedConstant(1, true);
    both.applyGate(Gate::ccnot(0, 1, 2));
    EXPECT_FALSE(both.isTop(2));
    EXPECT_FALSE(both.isIdentity(2)); // q2 ^ 1
    both.applyGate(Gate::x(2));
    EXPECT_TRUE(both.isIdentity(2));
}

TEST(AffineDataflow, SymbolicToffoliPoisonsOnlyItsTarget)
{
    AffineState s(3);
    s.applyGate(Gate::ccnot(0, 1, 2));
    EXPECT_TRUE(s.isTop(2));
    EXPECT_FALSE(s.isTop(0));
    EXPECT_FALSE(s.isTop(1));
    EXPECT_TRUE(s.anyTop());
    EXPECT_TRUE(s.mayDependOn(2, 0)); // ⊤ answers conservatively

    // ⊤ is sticky: no later linear gate can un-poison the wire...
    s.applyGate(Gate::x(2));
    s.applyGate(Gate::cnot(0, 2));
    EXPECT_TRUE(s.isTop(2));
    // ...and reading a ⊤ wire spreads ⊤ to the reader's target.
    s.applyGate(Gate::cnot(2, 0));
    EXPECT_TRUE(s.isTop(0));
}

TEST(AffineDataflow, McxFollowsTheSameControlRules)
{
    AffineState s(4);
    s.seedConstant(0, true);
    s.seedConstant(1, true);
    // Two constant-1 controls drop; one symbolic control remains:
    // the 3-control MCX is provably just CNOT[2, 3].
    s.applyGate(Gate::mcx({0, 1, 2}, 3));
    EXPECT_FALSE(s.isTop(3));
    EXPECT_TRUE(s.mayDependOn(3, 2));
    EXPECT_TRUE(s.mayDependOn(3, 3));
}

TEST(AffineDataflow, SwapExchangesDescriptions)
{
    AffineState s(2);
    s.applyGate(Gate::x(0)); // wire 0 holds q0 ^ 1
    s.applyGate(Gate::swap(0, 1));
    EXPECT_TRUE(s.mayDependOn(1, 0));
    EXPECT_FALSE(s.mayDependOn(1, 1)); // wire 1 now holds q0 ^ 1
    EXPECT_TRUE(s.mayDependOn(0, 1));  // wire 0 now holds q1
    EXPECT_FALSE(s.isIdentity(0));
    s.applyGate(Gate::swap(0, 1));
    s.applyGate(Gate::x(0));
    EXPECT_TRUE(s.isIdentity(0));
    EXPECT_TRUE(s.isIdentity(1));
}

TEST(AffineDataflow, NonClassicalGatePoisonsEverything)
{
    AffineState s(2);
    s.applyGate(Gate::h(0));
    EXPECT_TRUE(s.isTop(0));
    EXPECT_TRUE(s.isTop(1));
}

TEST(AffineDataflow, JoinKeepsAgreementAndTopsDisagreement)
{
    AffineState a(2), b(2);
    a.applyGate(Gate::x(0));
    b.applyGate(Gate::x(0));
    AffineState same = a;
    same.join(b);
    EXPECT_TRUE(same == a); // equal descriptions survive the join

    b.applyGate(Gate::x(1)); // now wire 1 differs between a and b
    a.join(b);
    EXPECT_FALSE(a.isTop(0)); // still q0 ^ 1 on both sides
    EXPECT_TRUE(a.isTop(1));
}

TEST(AffineDataflow, HashTracksStateEquality)
{
    Circuit cancel(3);
    cancel.append(Gate::cnot(0, 1));
    cancel.append(Gate::cnot(0, 1));
    const AffineState round =
        runForward<AffineDomain>(cancel, AffineState(3));
    const AffineState fresh(3);
    EXPECT_TRUE(round == fresh);
    EXPECT_EQ(fresh.hash(), round.hash());

    AffineState half(3);
    half.applyGate(Gate::cnot(0, 1));
    EXPECT_FALSE(half == fresh);
    EXPECT_NE(fresh.hash(), half.hash());
}

// ---------------------------------------- dataflow: constants domain

TEST(ConstantDataflow, CancellationRederivesConstants)
{
    // alloc c; CNOT[w, c]; CNOT[c, w]: w ^= c == w ^ w cancels, so w
    // is provably |0> - the fact plain constant folding cannot see
    // (c is symbolic in between).
    ConstantState s(2); // 0 = w, 1 = c
    s.setKnown(1, false);
    s.applyGate(Gate::cnot(0, 1));
    EXPECT_FALSE(s.value(1).has_value()); // c = w, not constant
    s.applyGate(Gate::cnot(1, 0));
    ASSERT_TRUE(s.value(0).has_value());
    EXPECT_FALSE(*s.value(0)); // w is provably |0> again
}

// ----------------------------------------- dataflow: liveness domain

TEST(LivenessDataflow, ControlsOfLiveTargetsBecomeLive)
{
    LivenessState s(3);
    s.setLive(1);
    s.applyGateBackward(Gate::cnot(0, 1));
    EXPECT_TRUE(s.isLive(0)); // control feeds the live target
    EXPECT_TRUE(s.isLive(1)); // t ^= c reads the old t: stays live
    EXPECT_FALSE(s.isLive(2));

    // A dead target leaves its controls dead.
    LivenessState dead(3);
    dead.setLive(2);
    dead.applyGateBackward(Gate::cnot(0, 1));
    EXPECT_FALSE(dead.isLive(0));
    EXPECT_FALSE(dead.isLive(1));
}

TEST(LivenessDataflow, SwapMovesLivenessExactly)
{
    LivenessState s(2);
    s.setLive(1);
    s.applyGateBackward(Gate::swap(0, 1));
    EXPECT_TRUE(s.isLive(0));
    EXPECT_FALSE(s.isLive(1)); // the only "kill" reversibility admits
}

TEST(LivenessDataflow, NonClassicalGateReadsAllOperands)
{
    LivenessState s(2);
    s.applyGateBackward(Gate::h(0));
    EXPECT_TRUE(s.isLive(0));
    EXPECT_FALSE(s.isLive(1));
}

// --------------------------------------------- dataflow: the engine

TEST(DataflowEngine, ForwardTraceKeepsEveryBoundary)
{
    Circuit c(2);
    c.append(Gate::x(0));
    c.append(Gate::cnot(0, 1));
    const auto trace = forwardTrace<AffineDomain>(c, AffineState(2));
    ASSERT_EQ(3u, trace.size());
    EXPECT_TRUE(trace[0].isIdentity(0));  // before gate 0
    EXPECT_FALSE(trace[1].isIdentity(0)); // after X
    EXPECT_TRUE(trace[1].isIdentity(1));
    EXPECT_TRUE(trace[2].mayDependOn(1, 0));
    EXPECT_TRUE(runForward<AffineDomain>(c, AffineState(2)) ==
                trace.back());
}

TEST(DataflowEngine, BackwardTraceSeedsAtTheFinalBoundary)
{
    Circuit c(2);
    c.append(Gate::cnot(0, 1));
    LivenessState boundary(2);
    boundary.setLive(1);
    const auto trace = backwardTrace<LivenessDomain>(c, boundary);
    ASSERT_EQ(2u, trace.size());
    EXPECT_TRUE(trace[1].isLive(1)); // the seed itself
    EXPECT_FALSE(trace[1].isLive(0));
    EXPECT_TRUE(trace[0].isLive(0)); // before the gate: control live
}

TEST(DataflowEngine, WritesWireSeesTargetsAndSwapOperands)
{
    Circuit c(3);
    c.append(Gate::cnot(0, 1));
    EXPECT_FALSE(writesWire(c, 0)); // control only: never written
    EXPECT_TRUE(writesWire(c, 1));
    EXPECT_FALSE(writesWire(c, 2));
    c.append(Gate::swap(0, 2));
    EXPECT_TRUE(writesWire(c, 0));
    EXPECT_TRUE(writesWire(c, 2));
}

// ------------------------------------------------------------- mirror

/** G ; B ; rev(G) with B on wires G never touches. */
Circuit
cleanMirrorCircuit()
{
    Circuit c(4);
    c.append(Gate::cnot(0, 1)); // G
    c.append(Gate::x(1));       // G
    c.append(Gate::cnot(2, 3)); // B: disjoint from Op(G) = {0, 1}
    c.append(Gate::x(1));       // rev(G)
    c.append(Gate::cnot(0, 1)); // rev(G)
    return c;
}

TEST(Mirror, PrefixLengthOfExplicitMirror)
{
    EXPECT_EQ(2u, mirrorPrefix(cleanMirrorCircuit()));

    Circuit pal(2);
    pal.append(Gate::cnot(0, 1));
    pal.append(Gate::cnot(0, 1));
    EXPECT_EQ(1u, mirrorPrefix(pal)); // empty middle block

    Circuit plain(2);
    plain.append(Gate::cnot(0, 1));
    plain.append(Gate::x(0));
    EXPECT_EQ(0u, mirrorPrefix(plain));
}

TEST(Mirror, NonSelfInverseGatesNeverMirror)
{
    // H is its own inverse as a unitary but is NOT a classical
    // permutation: the pass must refuse it.
    Circuit c(1);
    c.append(Gate::h(0));
    c.append(Gate::h(0));
    EXPECT_EQ(0u, mirrorPrefix(c));
    EXPECT_FALSE(selfInverseClassical(Gate::h(0)));
    EXPECT_TRUE(selfInverseClassical(Gate::x(0)));
    EXPECT_TRUE(selfInverseClassical(Gate::swap(0, 1)));
    EXPECT_TRUE(selfInverseClassical(Gate::ccnot(0, 1, 2)));
}

TEST(Mirror, DischargesBothConditionsForMirroredQubit)
{
    const Circuit c = cleanMirrorCircuit();
    const MirrorFacts f = mirrorFacts(c, 1);
    EXPECT_TRUE(f.zeroUnsat);
    EXPECT_TRUE(f.plusUnsat);
}

TEST(Mirror, NearMissMiddleWritesMirroredWireDoesNotDischarge)
{
    // Same mirror, but B writes wire 1 - a wire G touches.  The
    // rewind sees a clobbered value, so NOTHING may be discharged.
    Circuit c(4);
    c.append(Gate::cnot(0, 1));
    c.append(Gate::x(1));
    c.append(Gate::cnot(2, 1)); // B writes into Op(G)
    c.append(Gate::x(1));
    c.append(Gate::cnot(0, 1));
    const MirrorFacts f1 = mirrorFacts(c, 1);
    EXPECT_FALSE(f1.zeroUnsat);
    EXPECT_FALSE(f1.plusUnsat);
    const MirrorFacts f0 = mirrorFacts(c, 0);
    EXPECT_FALSE(f0.zeroUnsat);
    EXPECT_FALSE(f0.plusUnsat);
}

TEST(Mirror, NearMissTaintedControlKeepsPlusUndischarged)
{
    // B = CNOT[1, 3]: its target 3 is outside Op(G), so the zero
    // condition still discharges for qubit 1, but B READS wire 1 -
    // whose value is tainted by input 1 - so wire 3's output depends
    // on input 1 and the plus condition must NOT be discharged.
    Circuit c(4);
    c.append(Gate::cnot(0, 1));
    c.append(Gate::x(1));
    c.append(Gate::cnot(1, 3)); // B reads the tainted wire
    c.append(Gate::x(1));
    c.append(Gate::cnot(0, 1));
    const MirrorFacts f = mirrorFacts(c, 1);
    EXPECT_TRUE(f.zeroUnsat);
    EXPECT_FALSE(f.plusUnsat);
    // And indeed the qubit is truly unsafe: SAT agrees (soundness of
    // NOT discharging - the skipped claim was genuinely needed).
    EXPECT_EQ(core::Verdict::Unsafe, core::verifyQubit(c, 1).verdict);
}

TEST(Mirror, QubitWrittenByMiddleBlockNotDischarged)
{
    const Circuit c = cleanMirrorCircuit();
    // Qubit 3 is written by B itself: q in T(B), no discharge.
    const MirrorFacts f = mirrorFacts(c, 3);
    EXPECT_FALSE(f.zeroUnsat);
    EXPECT_FALSE(f.plusUnsat);
}

// -------------------------------------------------------- permutation

TEST(Permutation, RestoredWhenGatePairCancels)
{
    Circuit c(2);
    c.append(Gate::cnot(0, 1));
    c.append(Gate::cnot(0, 1));
    EXPECT_EQ(PermutationVerdict::Restored, permutationCheck(c, 1));
}

TEST(Permutation, NotRestoredForPlainFlip)
{
    Circuit c(2);
    c.append(Gate::x(1));
    EXPECT_EQ(PermutationVerdict::NotRestored,
              permutationCheck(c, 1));
}

TEST(Permutation, ConeBeyondWindowAnswersTooWide)
{
    Circuit c(3);
    c.append(Gate::cnot(0, 1));
    c.append(Gate::cnot(2, 1)); // cone of qubit 1 is {0, 1, 2}
    EXPECT_EQ(PermutationVerdict::TooWide,
              permutationCheck(c, 1, /*window=*/2));
    // The same circuit within a wide-enough window is decidable.
    EXPECT_NE(PermutationVerdict::TooWide,
              permutationCheck(c, 1, /*window=*/3));
}

TEST(Permutation, NonClassicalGateInConeAnswersTooWide)
{
    Circuit c(2);
    c.append(Gate::h(0));
    c.append(Gate::cnot(0, 1));
    EXPECT_EQ(PermutationVerdict::TooWide, permutationCheck(c, 1));
}

TEST(Permutation, NonClassicalGateOutsideConeIsIgnored)
{
    Circuit c(3);
    c.append(Gate::h(2)); // irrelevant to qubit 1's cone
    c.append(Gate::x(1));
    c.append(Gate::x(1));
    EXPECT_EQ(PermutationVerdict::Restored, permutationCheck(c, 1));
}

/**
 * The permutation check as it was before the writer index: one
 * backward walk over EVERY gate of the circuit.  Kept as the oracle
 * the indexed walk must match verdict for verdict.
 */
PermutationVerdict
referencePermutationCheck(const Circuit &circuit, ir::QubitId q,
                          unsigned window)
{
    if (window > 20)
        window = 20;
    const std::vector<Gate> &gates = circuit.gates();
    std::vector<int> cone_index(circuit.numQubits(), -1);
    std::vector<ir::QubitId> cone;
    const auto join = [&](ir::QubitId w) {
        if (cone_index[w] < 0) {
            cone_index[w] = static_cast<int>(cone.size());
            cone.push_back(w);
        }
    };
    join(q);
    std::vector<std::size_t> relevant;
    for (std::size_t i = gates.size(); i-- > 0;) {
        const Gate &gate = gates[i];
        if (!gate.isClassical()) {
            for (const ir::QubitId w : gate.qubits())
                if (cone_index[w] >= 0)
                    return PermutationVerdict::TooWide;
            continue;
        }
        const bool writes = gate.kind() == ir::GateKind::Swap
            ? cone_index[gate.qubits()[0]] >= 0 ||
                  cone_index[gate.qubits()[1]] >= 0
            : cone_index[gate.target()] >= 0;
        if (!writes)
            continue;
        for (const ir::QubitId w : gate.qubits())
            join(w);
        if (cone.size() > window)
            return PermutationVerdict::TooWide;
        relevant.push_back(i);
    }
    const std::uint64_t count = std::uint64_t{1} << cone.size();
    const int qi = cone_index[q];
    for (std::uint64_t input = 0; input < count; ++input) {
        std::uint64_t state = input;
        for (std::size_t r = relevant.size(); r-- > 0;) {
            const Gate &gate = gates[relevant[r]];
            if (gate.kind() == ir::GateKind::Swap) {
                const int a = cone_index[gate.qubits()[0]];
                const int b = cone_index[gate.qubits()[1]];
                if (((state >> a) & 1) != ((state >> b) & 1))
                    state ^= (std::uint64_t{1} << a) |
                             (std::uint64_t{1} << b);
                continue;
            }
            bool fire = true;
            for (const ir::QubitId c : gate.controls())
                if (!((state >> cone_index[c]) & 1))
                    fire = false;
            if (fire)
                state ^= std::uint64_t{1} << cone_index[gate.target()];
        }
        if (((state >> qi) & 1) != ((input >> qi) & 1))
            return PermutationVerdict::NotRestored;
    }
    return PermutationVerdict::Restored;
}

TEST(Permutation, WriterIndexListsWritesAndNonClassicalTouches)
{
    Circuit c(4);
    c.append(Gate::cnot(0, 1)); // 0: writes 1 only
    c.append(Gate::swap(1, 2)); // 1: writes both
    c.append(Gate::h(3));       // 2: non-classical, touches 3
    c.append(Gate::cz(0, 3));   // 3: non-classical, touches 0 and 3
    c.append(Gate::x(1));       // 4
    const WriterIndex w(c.gates(), c.numQubits());
    using V = std::vector<std::uint32_t>;
    const auto of = [&](ir::QubitId q) {
        return V(w.of(q).begin(), w.of(q).end());
    };
    EXPECT_EQ(V({3}), of(0));
    EXPECT_EQ(V({0, 1, 4}), of(1));
    EXPECT_EQ(V({1}), of(2));
    EXPECT_EQ(V({2, 3}), of(3));
}

TEST(Permutation, IndexedWalkMatchesFullBackwardWalk)
{
    // Random circuits mixing every classical kind with non-classical
    // gates, every qubit, windows from 1 to 12: the writer-list walk
    // must give the full walk's verdict each time.
    std::size_t decided = 0, too_wide = 0;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        Rng rng(seed * 7919 + 3);
        const auto n = static_cast<std::uint32_t>(2 + rng.nextBelow(13));
        Circuit c(n);
        const auto pick = [&](std::vector<ir::QubitId> &used) {
            ir::QubitId w;
            do
                w = static_cast<ir::QubitId>(rng.nextBelow(n));
            while (std::find(used.begin(), used.end(), w) != used.end());
            used.push_back(w);
            return w;
        };
        const std::size_t length = rng.nextBelow(40);
        for (std::size_t g = 0; g < length; ++g) {
            std::vector<ir::QubitId> used;
            const std::uint64_t kind = rng.nextBelow(n >= 4 ? 7 : 5);
            if (kind == 0) {
                c.append(Gate::x(pick(used)));
            } else if (kind == 1) {
                const ir::QubitId a = pick(used);
                c.append(Gate::cnot(a, pick(used)));
            } else if (kind == 2) {
                const ir::QubitId a = pick(used);
                c.append(Gate::swap(a, pick(used)));
            } else if (kind == 3) {
                c.append(rng.nextBool(0.8) ? Gate::x(pick(used))
                                           : Gate::h(pick(used)));
            } else if (kind == 4) {
                const ir::QubitId a = pick(used);
                c.append(rng.nextBool(0.8) ? Gate::cnot(a, pick(used))
                                           : Gate::cz(a, pick(used)));
            } else if (kind == 5) {
                const ir::QubitId a = pick(used);
                const ir::QubitId b = pick(used);
                c.append(Gate::ccnot(a, b, pick(used)));
            } else {
                std::vector<ir::QubitId> controls;
                controls.push_back(pick(used));
                controls.push_back(pick(used));
                controls.push_back(pick(used));
                c.append(Gate::mcx(controls, pick(used)));
            }
        }
        const WriterIndex writers(c.gates(), n);
        for (ir::QubitId q = 0; q < n; ++q)
            for (unsigned window = 1; window <= 12; ++window) {
                const PermutationVerdict expected =
                    referencePermutationCheck(c, q, window);
                ASSERT_EQ(expected,
                          permutationCheck(c.gates(), writers, q, window))
                    << "seed " << seed << " qubit " << q << " window "
                    << window << "\n"
                    << c.toString();
                ASSERT_EQ(expected, permutationCheck(c, q, window));
                ++(expected == PermutationVerdict::TooWide ? too_wide
                                                           : decided);
            }
    }
    // Both outcomes must be well represented for the match to mean
    // anything.
    EXPECT_GT(decided, 1000u);
    EXPECT_GT(too_wide, 1000u);
}

// ----------------------------------------------------------- analyzer

TEST(Analyzer, CreditsMirrorPassOnMirroredCircuit)
{
    const Circuit c = cleanMirrorCircuit();
    Analyzer analyzer(c, AnalysisOptions{});
    const QubitFacts &f = analyzer.qubitFacts(1);
    EXPECT_NE(Pass::None, f.zeroDischargedBy);
    EXPECT_NE(Pass::None, f.plusDischargedBy);
}

TEST(Analyzer, AllPassesOffDischargesNothing)
{
    const Circuit c = cleanMirrorCircuit();
    Analyzer analyzer(c, AnalysisOptions::none());
    const QubitFacts &f = analyzer.qubitFacts(1);
    EXPECT_EQ(Pass::None, f.zeroDischargedBy);
    EXPECT_EQ(Pass::None, f.plusDischargedBy);
}

TEST(Analyzer, NonClassicalCircuitDischargesNothing)
{
    Circuit c(2);
    c.append(Gate::h(0));
    c.append(Gate::cnot(0, 1));
    Analyzer analyzer(c, AnalysisOptions{});
    const QubitFacts &f = analyzer.qubitFacts(1);
    EXPECT_EQ(Pass::None, f.zeroDischargedBy);
    EXPECT_EQ(Pass::None, f.plusDischargedBy);
}

// ----------------------------------------------------- affine pass

TEST(AffinePass, ExactRowsBeatTheSupportApproximation)
{
    // CNOT[0,1]; CNOT[0,1]: wire 1 provably forgets input 0.  The
    // support sets cannot see the cancellation - supportDischargesPlus
    // stays false - but the affine rows are exact and discharge (6.2).
    Circuit c(2);
    c.append(Gate::cnot(0, 1));
    c.append(Gate::cnot(0, 1));
    EXPECT_FALSE(supportDischargesPlus(c, 0));
    Analyzer analyzer(c, AnalysisOptions{});
    const AffineFacts f = analyzer.affineFacts(0);
    EXPECT_TRUE(f.zeroUnsat);
    EXPECT_TRUE(f.plusUnsat);
}

TEST(AffinePass, LeakingWireKeepsPlusUndischarged)
{
    // Wire 0 is restored (identity) but wire 1 genuinely depends on
    // it: (6.1) discharges, (6.2) must NOT.
    Circuit c(2);
    c.append(Gate::cnot(0, 1));
    Analyzer analyzer(c, AnalysisOptions{});
    const AffineFacts f = analyzer.affineFacts(0);
    EXPECT_TRUE(f.zeroUnsat);
    EXPECT_FALSE(f.plusUnsat);
    // And the skipped proof was genuinely needed: SAT says Unsafe.
    EXPECT_EQ(core::Verdict::Unsafe, core::verifyQubit(c, 0).verdict);
}

TEST(AffinePass, NearMissNonlinearRestorationDoesNotDischarge)
{
    // CCNOT; CCNOT restores wire 2 on every input, but the
    // restoration is nonlinear: the affine domain holds wire 2 at ⊤
    // and must NOT claim (6.1) - that discharge belongs to other
    // passes (here the SAT run settles it; the qubit is Safe).  The
    // plus side is different: (6.2) asks about the OTHER wires, whose
    // rows are exactly identity, so it discharges regardless of the
    // target's ⊤.
    Circuit c(3);
    c.append(Gate::ccnot(0, 1, 2));
    c.append(Gate::ccnot(0, 1, 2));
    Analyzer analyzer(c, AnalysisOptions{});
    const AffineFacts f2 = analyzer.affineFacts(2);
    EXPECT_FALSE(f2.zeroUnsat);
    EXPECT_TRUE(f2.plusUnsat);
    EXPECT_EQ(core::Verdict::Safe, core::verifyQubit(c, 2).verdict);

    // For the untouched controls the roles flip: (6.1) discharges
    // (identity row), but wire 2's ⊤ row MAY depend on them, so
    // (6.2) must stay undischarged.
    const AffineFacts f0 = analyzer.affineFacts(0);
    EXPECT_TRUE(f0.zeroUnsat);
    EXPECT_FALSE(f0.plusUnsat);
}

TEST(AffinePass, OffOptionAndNonClassicalCircuitsClaimNothing)
{
    Circuit linear(2);
    linear.append(Gate::cnot(0, 1));
    linear.append(Gate::cnot(0, 1));
    AnalysisOptions off;
    off.affine = false;
    Analyzer disabled(linear, off);
    const AffineFacts f = disabled.affineFacts(0);
    EXPECT_FALSE(f.zeroUnsat);
    EXPECT_FALSE(f.plusUnsat);

    Circuit quantum(2);
    quantum.append(Gate::h(0));
    quantum.append(Gate::cnot(0, 1));
    Analyzer nonclassical(quantum, AnalysisOptions{});
    const AffineFacts g = nonclassical.affineFacts(1);
    EXPECT_FALSE(g.zeroUnsat);
    EXPECT_FALSE(g.plusUnsat);
}

TEST(AffinePass, DischargesWideLinearConeBeyondPermutationWindow)
{
    // The acceptance circuit: a 65-wire cone the permutation pass
    // must refuse (TooWide) and the mirror pass cannot match (the
    // unfold is rotated), proved restored by the affine sweep with no
    // window bound at all.
    const auto prog = lang::elaborateSource(
        circuits::wideLinearMirrorQbrSource(64));
    const auto verify =
        prog.qubitsWithRole(lang::QubitRole::BorrowVerify);
    ASSERT_EQ(1u, verify.size());
    const ir::QubitId w = verify[0];
    const auto &info = prog.qubits[w];
    const Circuit scope =
        prog.circuit.slice(info.scopeBegin, info.scopeEnd);
    EXPECT_EQ(65u, scope.numQubits());
    EXPECT_EQ(PermutationVerdict::TooWide,
              permutationCheck(scope, w, kDefaultPermutationWindow));
    EXPECT_EQ(0u, mirrorPrefix(scope));

    Analyzer analyzer(scope, AnalysisOptions{});
    const AffineFacts f = analyzer.affineFacts(w);
    EXPECT_TRUE(f.zeroUnsat);
    EXPECT_TRUE(f.plusUnsat);
}

// ------------------------------------------- engine discharge wiring

/**
 * A circuit that restores qubit 2 semantically but not syntactically:
 * (a AND b) XOR (a AND NOT b) XOR a = 0, an identity the boolexpr
 * arena has no distributivity rule to fold.  Condition (6.1) for
 * qubit 2 therefore stays NON-constant - a SAT-only run must race the
 * solver - while the permutation pass proves restoration exactly
 * within its window and discharges it statically.  (Exact textbook
 * mirrors never reach the analyzer at engine level: the arena's
 * hash-consing cancels rev(G) node-for-node and both conditions fold
 * to constants first; see the Mirror unit tests for the pass itself.)
 */
Circuit
nonFoldingRestoreCircuit()
{
    Circuit c(3); // a = 0, b = 1, w = 2
    c.append(Gate::ccnot(0, 1, 2)); // w ^= a AND b
    c.append(Gate::x(1));
    c.append(Gate::ccnot(0, 1, 2)); // w ^= a AND NOT b
    c.append(Gate::x(1));
    c.append(Gate::cnot(0, 2));     // w ^= a
    return c;
}

TEST(EngineAnalysis, RestoredQubitDischargesWithoutChangingVerdict)
{
    const Circuit c = nonFoldingRestoreCircuit();

    core::EngineOptions with;   // analysis on by default
    core::EngineOptions without;
    without.analysis = AnalysisOptions::none();

    core::VerificationEngine on(c, with);
    const core::QubitResult r_on = on.verify(2);
    core::VerificationEngine off(c, without);
    const core::QubitResult r_off = off.verify(2);

    EXPECT_EQ(core::Verdict::Safe, r_on.verdict);
    EXPECT_EQ(r_off.verdict, r_on.verdict);
    EXPECT_EQ(r_off.failed, r_on.failed);
    EXPECT_GE(on.stats().analysisDischarged, 1u);
    EXPECT_GE(on.stats().analysisPermutation, 1u);
    EXPECT_EQ(0u, off.stats().analysisDischarged);
}

TEST(EngineAnalysis, TotalsAndReportJsonCarryDischarges)
{
    // The same non-folding restore shape at program level: the
    // discharge must surface in ProgramResult::analysisTotals and in
    // the report JSON.
    const std::string src = "borrow@ a[2];\n"
                            "borrow w;\n"
                            "CCNOT[a[1], a[2], w];\n"
                            "X[a[2]];\n"
                            "CCNOT[a[1], a[2], w];\n"
                            "X[a[2]];\n"
                            "CNOT[a[1], w];\n"
                            "release w;\n";
    const core::ProgramResult result = core::verifySource(src);
    ASSERT_EQ(1u, result.qubits.size());
    EXPECT_EQ(core::Verdict::Safe, result.qubits[0].verdict);
    EXPECT_GE(result.analysisTotals.discharged, 1);
    EXPECT_EQ(result.analysisTotals.discharged,
              result.analysisTotals.support +
                  result.analysisTotals.mirror +
                  result.analysisTotals.affine +
                  result.analysisTotals.permutation);
    const std::string json = core::toJson(result, "mirror.qbr");
    EXPECT_NE(std::string::npos, json.find("\"analysis\":"));
    EXPECT_NE(std::string::npos, json.find("\"analysis_discharged\":"));
}

TEST(EngineAnalysis, MirrorMcxGeneratorDischargesAtAnyScale)
{
    // The benchmark generator behind CI's "discharges >= 1"
    // assertion: the restore cell keeps the dirty qubit's cone at 3
    // wires however long the surrounding mirrored ladder grows, so
    // the permutation pass fires at every m.
    for (const std::uint32_t m : {3u, 8u, 20u}) {
        const core::ProgramResult result = core::verifySource(
            circuits::mirrorMcxQbrSource(m));
        ASSERT_EQ(1u, result.qubits.size()) << "m=" << m;
        EXPECT_EQ(core::Verdict::Safe, result.qubits[0].verdict)
            << "m=" << m;
        EXPECT_GE(result.analysisTotals.permutation, 1) << "m=" << m;
    }
    EXPECT_THROW(circuits::mirrorMcxQbrSource(2),
                 std::invalid_argument);
}

TEST(EngineAnalysis, WideLinearMirrorDischargesByAffineWithZeroSatWork)
{
    // The PR's acceptance property: a >= 64-wire linear mirror whose
    // cone exceeds the permutation window is discharged entirely by
    // the affine pass - both conditions, before any formula is built
    // - and the SAT-only twin reaches the bit-identical verdict
    // through structural folding, also with zero SAT work.
    const auto prog = lang::elaborateSource(
        circuits::wideLinearMirrorQbrSource(64));
    for (const unsigned jobs : {1u, 4u}) {
        core::EngineOptions with;
        with.jobs = jobs;
        core::EngineOptions without;
        without.jobs = jobs;
        without.analysis = AnalysisOptions::none();
        const auto r_on = core::verifyAll(prog, with);
        const auto r_off = core::verifyAll(prog, without);

        ASSERT_EQ(1u, r_on.qubits.size()) << "jobs=" << jobs;
        ASSERT_EQ(1u, r_off.qubits.size()) << "jobs=" << jobs;
        EXPECT_EQ(core::Verdict::Safe, r_on.qubits[0].verdict);
        EXPECT_EQ(r_off.qubits[0].verdict, r_on.qubits[0].verdict);
        EXPECT_EQ(r_off.qubits[0].failed, r_on.qubits[0].failed);

        // Analysis on: both conditions credited to the affine pass...
        EXPECT_EQ(2, r_on.analysisTotals.affine) << "jobs=" << jobs;
        EXPECT_EQ(2, r_on.analysisTotals.discharged);
        EXPECT_FALSE(r_on.qubits[0].solvedStructurally);
        // ...with zero SAT work on either side.
        for (const auto *r : {&r_on.qubits[0], &r_off.qubits[0]}) {
            EXPECT_EQ(0u, r->cnfVars) << "jobs=" << jobs;
            EXPECT_EQ(0u, r->cnfClauses);
            EXPECT_EQ(0, r->conflicts);
        }
        // Analysis off: the arena's GF(2) folding settles both
        // conditions structurally; nothing is (or could be) credited.
        EXPECT_EQ(0, r_off.analysisTotals.discharged);
        EXPECT_TRUE(r_off.qubits[0].solvedStructurally);
    }
    EXPECT_THROW(circuits::wideLinearMirrorQbrSource(3),
                 std::invalid_argument);
}

TEST(EngineAnalysis, Width64RandomLinearProgramsAgreeWithSatOnly)
{
    // The width-64 slice of the analyzer-vs-SAT property: purely
    // linear random programs over 64 wires plus one borrowed wire,
    // where the affine pass (not the window-bounded permutation pass)
    // is the discharger that can fire.  Verdict and failed condition
    // must match the SAT-only twin on every qubit, and across the
    // seeds the affine pass must actually have fired.
    std::int64_t affine_total = 0;
    for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
        Rng rng(seed);
        // Random GF(2)-linear program over 64 input wires that folds
        // a random subset of them into the borrowed wire; even seeds
        // replay the folds (XOR is order-free) so the borrow
        // restores, odd seeds leave it dirty.
        std::string src = "borrow@ q[64];\nborrow w;\n";
        std::vector<std::string> folds;
        folds.push_back("CNOT[q[1], w];\n"); // w is always written
        for (int i = 0; i < 30; ++i) {
            const auto a = static_cast<unsigned>(
                1 + rng.nextBelow(64));
            auto b = static_cast<unsigned>(1 + rng.nextBelow(64));
            while (b == a)
                b = static_cast<unsigned>(1 + rng.nextBelow(64));
            switch (rng.nextBelow(3)) {
              case 0:
                src += format("X[q[%u]];\n", a);
                break;
              case 1:
                src += format("CNOT[q[%u], q[%u]];\n", a, b);
                break;
              default:
                folds.push_back(format("CNOT[q[%u], w];\n", a));
                break;
            }
        }
        for (const std::string &fold : folds)
            src += fold;
        if (seed % 2 == 0)
            for (const std::string &fold : folds)
                src += fold;
        src += "release w;\n";
        const auto prog = lang::elaborateSource(src);

        core::EngineOptions with;
        core::EngineOptions without;
        without.analysis = AnalysisOptions::none();
        const auto r_on = core::verifyAll(prog, with);
        const auto r_off = core::verifyAll(prog, without);

        ASSERT_EQ(r_off.qubits.size(), r_on.qubits.size());
        for (std::size_t i = 0; i < r_on.qubits.size(); ++i) {
            EXPECT_EQ(r_off.qubits[i].verdict, r_on.qubits[i].verdict)
                << "seed " << seed << "\n"
                << src;
            EXPECT_EQ(r_off.qubits[i].failed, r_on.qubits[i].failed)
                << "seed " << seed << "\n"
                << src;
        }
        affine_total += r_on.analysisTotals.affine;
        EXPECT_EQ(0, r_off.analysisTotals.discharged);
    }
    // w is only ever a fold TARGET, so (6.2) is affine-dischargeable
    // in every seed; the even (restoring) seeds discharge (6.1) too.
    EXPECT_GE(affine_total, 6);
}

TEST(EngineAnalysis, RandomProgramsVerdictsAgreeWithSatOnly)
{
    // Property: enabling the analyzer never changes any verdict or
    // failed condition relative to a SAT-only run.  Random programs
    // through the full text -> parse -> elaborate -> verify pipeline.
    for (int seed = 0; seed < 25; ++seed) {
        Rng rng(seed * 6151 + 17);
        const int nq = 3 + static_cast<int>(rng.nextBelow(3));
        std::string src = format("borrow q[%d];\n", nq);
        const int body = 2 + static_cast<int>(rng.nextBelow(8));
        for (int i = 0; i < body; ++i) {
            const int a = 1 + static_cast<int>(rng.nextBelow(nq));
            int b = 1 + static_cast<int>(rng.nextBelow(nq));
            while (b == a)
                b = 1 + static_cast<int>(rng.nextBelow(nq));
            switch (rng.nextBelow(3)) {
              case 0:
                src += format("X[q[%d]];\n", a);
                break;
              case 1:
                src += format("CNOT[q[%d], q[%d]];\n", a, b);
                break;
              default:
                src += format("SWAP[q[%d], q[%d]];\n", a, b);
                break;
            }
        }
        const auto prog = lang::elaborateSource(src);

        core::EngineOptions with;
        core::EngineOptions without;
        without.analysis = AnalysisOptions::none();
        const auto r_on = core::verifyAll(prog, with);
        const auto r_off = core::verifyAll(prog, without);

        ASSERT_EQ(r_off.qubits.size(), r_on.qubits.size());
        for (std::size_t i = 0; i < r_on.qubits.size(); ++i) {
            EXPECT_EQ(r_off.qubits[i].verdict, r_on.qubits[i].verdict)
                << "seed " << seed << " qubit " << i << "\n"
                << src;
            EXPECT_EQ(r_off.qubits[i].failed, r_on.qubits[i].failed)
                << "seed " << seed << " qubit " << i << "\n"
                << src;
        }
        EXPECT_EQ(0, r_off.analysisTotals.discharged);
    }
}

// ------------------------------------------------------ lint goldens

const Diagnostic &
only(const LintResult &result)
{
    EXPECT_EQ(1u, result.diagnostics.size());
    return result.diagnostics.front();
}

TEST(Lint, BorrowNotRestoredIsAnErrorWithExactLocation)
{
    const LintResult r = lintSource("borrow w;\n"
                                    "X[w];\n"
                                    "release w;\n");
    ASSERT_TRUE(r.elaborated);
    const Diagnostic &d = only(r);
    EXPECT_EQ(Severity::Error, d.severity);
    EXPECT_EQ("borrow-not-restored", d.rule);
    EXPECT_EQ(1, d.loc.line);
    EXPECT_EQ(8, d.loc.column); // the 'w' of "borrow w"
    EXPECT_TRUE(r.hasErrors());
    EXPECT_EQ(1u, r.errorCount());

    // The lint verdict must agree with actual verification: the same
    // program's borrowed qubit is Unsafe under SAT.
    const auto verified = core::verifySource("borrow w;\n"
                                             "X[w];\n"
                                             "release w;\n");
    ASSERT_EQ(1u, verified.qubits.size());
    EXPECT_EQ(core::Verdict::Unsafe, verified.qubits[0].verdict);
}

TEST(Lint, SkipMarkedBorrowDowngradesToWarning)
{
    const LintResult r = lintSource("borrow@ w;\n"
                                    "X[w];\n");
    ASSERT_TRUE(r.elaborated);
    const Diagnostic &d = only(r);
    EXPECT_EQ(Severity::Warning, d.severity);
    EXPECT_EQ("borrow-not-restored", d.rule);
    EXPECT_NE(std::string::npos, d.message.find("waived"));
    EXPECT_FALSE(r.hasErrors());
}

TEST(Lint, UnusedBorrowRedundantBlockAndConstantControl)
{
    const LintResult r = lintSource("borrow w;\n"
                                    "borrow unused;\n"
                                    "alloc c;\n"
                                    "CNOT[c, w];\n"
                                    "CNOT[c, w];\n"
                                    "release w;\n");
    ASSERT_TRUE(r.elaborated);
    ASSERT_EQ(3u, r.diagnostics.size());
    // Sorted by source position (stable at equal positions).
    EXPECT_EQ("unused-borrow", r.diagnostics[0].rule);
    EXPECT_EQ(2, r.diagnostics[0].loc.line);
    EXPECT_EQ(8, r.diagnostics[0].loc.column);

    // The affine boundary scan proves the two CNOTs compose to the
    // identity map on every input: one diagnostic for the block,
    // anchored at its first gate and naming its last.
    EXPECT_EQ("redundant-gate", r.diagnostics[1].rule);
    EXPECT_EQ(4, r.diagnostics[1].loc.line);
    EXPECT_EQ(1, r.diagnostics[1].loc.column);
    EXPECT_NE(std::string::npos,
              r.diagnostics[1].message.find("5:1"));
    EXPECT_NE(std::string::npos,
              r.diagnostics[1].message.find("2-gate block"));

    // The constants domain knows alloc c starts |0>: the CNOT's
    // control can never fire.  Latched per wire - one diagnostic at
    // the first offending gate, not one per gate.
    EXPECT_EQ("control-always-constant", r.diagnostics[2].rule);
    EXPECT_EQ(4, r.diagnostics[2].loc.line);
    EXPECT_EQ(1, r.diagnostics[2].loc.column);
    EXPECT_NE(std::string::npos,
              r.diagnostics[2].message.find("never fires"));
    for (const Diagnostic &d : r.diagnostics)
        EXPECT_EQ(Severity::Warning, d.severity);
    EXPECT_FALSE(r.hasErrors());
}

TEST(Lint, QubitNeverReadFlagsWriteOnlyAlloc)
{
    // scratch only ever ABSORBS parity; no control, gate, or escaping
    // wire observes its value, so the alloc (and every gate into it)
    // is dead weight.  The borrowed wire itself restores, so this is
    // the only diagnostic.
    const LintResult r = lintSource("borrow w;\n"
                                    "alloc scratch;\n"
                                    "X[w];\n"
                                    "CNOT[w, scratch];\n"
                                    "X[w];\n"
                                    "release w;\n");
    ASSERT_TRUE(r.elaborated);
    const Diagnostic &d = only(r);
    EXPECT_EQ("qubit-never-read", d.rule);
    EXPECT_EQ(Severity::Warning, d.severity);
    EXPECT_EQ(2, d.loc.line);
    EXPECT_EQ(7, d.loc.column); // the 'scratch' of "alloc scratch"
    EXPECT_NE(std::string::npos, d.message.find("never read"));
}

TEST(Lint, DerivedConstantControlAndNotRestoredViaAlloc)
{
    // After CNOT[w,c]; CNOT[c,w] the borrowed wire is provably |0> -
    // a constant DERIVED by linear cancellation, not declared - so
    // the third gate's control never fires.  And w's final value is
    // c's initial value: the permutation pass (cone {w, c}, well
    // within the window) proves it not restored.
    const LintResult r = lintSource("borrow w;\n"
                                    "alloc c;\n"
                                    "CNOT[w, c];\n"
                                    "CNOT[c, w];\n"
                                    "CNOT[w, c];\n"
                                    "release w;\n");
    ASSERT_TRUE(r.elaborated);
    ASSERT_EQ(2u, r.diagnostics.size());
    EXPECT_EQ("borrow-not-restored", r.diagnostics[0].rule);
    EXPECT_EQ(Severity::Error, r.diagnostics[0].severity);
    EXPECT_EQ(1, r.diagnostics[0].loc.line);
    EXPECT_EQ(8, r.diagnostics[0].loc.column);

    EXPECT_EQ("control-always-constant", r.diagnostics[1].rule);
    EXPECT_EQ(Severity::Warning, r.diagnostics[1].severity);
    EXPECT_EQ(5, r.diagnostics[1].loc.line);
    EXPECT_EQ(1, r.diagnostics[1].loc.column);
    EXPECT_NE(std::string::npos,
              r.diagnostics[1].message.find("never fires"));
    EXPECT_TRUE(r.hasErrors());
}

TEST(Lint, NotRestoredProvedByAffineBeyondPermutationWindow)
{
    // Thirteen wires in the cone: the permutation pass answers
    // TooWide at its default window of 10, and before the affine
    // fallback this genuinely unrestored borrow went UNREPORTED.  The
    // affine sweep has no window: w ends at w ^ q1 ^ ... ^ q12 ^ 1,
    // provably not identity.
    const LintResult r = lintSource(
        "borrow q[12];\n"
        "borrow w;\n"
        "for i = 1 to 12 { CNOT[q[i], w]; }\n"
        "X[w];\n"
        "release w;\n");
    ASSERT_TRUE(r.elaborated);
    const Diagnostic &d = only(r);
    EXPECT_EQ("borrow-not-restored", d.rule);
    EXPECT_EQ(Severity::Error, d.severity);
    EXPECT_EQ(2, d.loc.line);
    EXPECT_EQ(8, d.loc.column); // the 'w' of "borrow w"
}

TEST(Lint, PathDivergentReleaseSurvivesElaborationFailure)
{
    // Measurement-guarded programs cannot elaborate to a circuit;
    // the AST layer must still report the asymmetric release.
    const LintResult r = lintSource("borrow r[2];\n"
                                    "X[r[1]];\n"
                                    "if M[r[2]] {\n"
                                    "    release r;\n"
                                    "}\n");
    EXPECT_FALSE(r.elaborated);
    EXPECT_FALSE(r.elaborationError.empty());
    const Diagnostic &d = only(r);
    EXPECT_EQ("path-divergent-release", d.rule);
    EXPECT_EQ(Severity::Warning, d.severity);
    EXPECT_EQ(3, d.loc.line);
    EXPECT_EQ(1, d.loc.column);
}

TEST(Lint, CleanProgramHasNoDiagnosticsAndExactMetrics)
{
    // Clean under ALL five rules: u = a AND b is read by the CNOTs
    // (not qubit-never-read), never provably constant at a control,
    // the X-sandwich restores w on every input without depending on
    // the alloc wire (not borrow-not-restored), no block composes to
    // the identity on all inputs, and every borrow is touched.
    const LintResult r = lintSource("borrow a;\n"
                                    "borrow b;\n"
                                    "borrow w;\n"
                                    "alloc u;\n"
                                    "CCNOT[a, b, u];\n"
                                    "CNOT[u, w];\n"
                                    "X[w];\n"
                                    "CNOT[u, w];\n"
                                    "X[w];\n"
                                    "release w;\n");
    ASSERT_TRUE(r.elaborated);
    EXPECT_TRUE(r.diagnostics.empty());
    for (const Diagnostic &d : r.diagnostics)
        ADD_FAILURE() << d.rule << " at " << d.loc.line << ":"
                      << d.loc.column << ": " << d.message;
    EXPECT_EQ(5u, r.metrics.gateCount);
    EXPECT_EQ(4u, r.metrics.qubits);
    EXPECT_EQ(5u, r.metrics.depth);
    EXPECT_EQ(3u, r.metrics.borrowPressure);
}

TEST(Lint, RenderersCarryRuleAndPosition)
{
    const LintResult r = lintSource("borrow w;\nX[w];\n");
    const std::string text = renderLintText(r, "prog.qbr");
    EXPECT_NE(std::string::npos,
              text.find("prog.qbr:1:8: error: [borrow-not-restored]"));
    const std::string json = lintToJson(r, "prog.qbr");
    EXPECT_NE(std::string::npos,
              json.find("\"rule\": \"borrow-not-restored\""));
    EXPECT_NE(std::string::npos, json.find("\"line\": 1"));
    EXPECT_NE(std::string::npos, json.find("\"errors\": 1"));
}

// ------------------------------- borrow-not-restored: scope sharing

/**
 * The borrow-not-restored rule as it ran before scopes were shared:
 * per qubit, a copy of its lifetime circuit, the full-walk
 * permutation check and, on TooWide, an affine pass over the copy.
 */
std::vector<Diagnostic>
referenceBorrowNotRestored(const lang::ElaboratedProgram &program,
                           unsigned window = kDefaultPermutationWindow)
{
    std::vector<Diagnostic> out;
    for (std::size_t q = 0; q < program.qubits.size(); ++q) {
        const lang::QubitInfo &info = program.qubits[q];
        const bool borrow =
            info.role == lang::QubitRole::BorrowVerify ||
            info.role == lang::QubitRole::BorrowSkip;
        if (!borrow || info.scopeBegin >= info.scopeEnd)
            continue;
        const Circuit lifetime =
            program.circuit.slice(info.scopeBegin, info.scopeEnd);
        if (!lifetime.isClassical())
            continue;
        const auto wire = static_cast<ir::QubitId>(q);
        const PermutationVerdict verdict =
            referencePermutationCheck(lifetime, wire, window);
        bool not_restored = verdict == PermutationVerdict::NotRestored;
        if (verdict == PermutationVerdict::TooWide) {
            const AffineState final = runForward<AffineDomain>(
                lifetime, AffineState(lifetime.numQubits()));
            not_restored = !final.isTop(wire) && !final.isIdentity(wire);
        }
        if (!not_restored)
            continue;
        Diagnostic d;
        d.severity = info.role == lang::QubitRole::BorrowVerify
            ? Severity::Error
            : Severity::Warning;
        d.rule = "borrow-not-restored";
        d.loc = info.loc;
        d.message = format(
            "borrowed qubit '%s' is written without restoration: "
            "some initial value is provably changed by its lifetime "
            "circuit%s",
            info.name.c_str(),
            info.role == lang::QubitRole::BorrowSkip
                ? " (verification waived by borrow@)"
                : "");
        out.push_back(std::move(d));
    }
    return out;
}

/** Assert that the rule's diagnostics in @p source equal the
 *  oracle's in rule, severity, location, message and order; returns
 *  how many fired. */
std::size_t
expectBorrowParity(const std::string &source, const std::string &label)
{
    const lang::ElaboratedProgram program = lang::elaborateSource(source);
    LintResult linted;
    lintElaborated(program, LintOptions{}, linted);
    std::vector<Diagnostic> got;
    for (const Diagnostic &d : linted.diagnostics)
        if (d.rule == "borrow-not-restored")
            got.push_back(d);
    const std::vector<Diagnostic> expected =
        referenceBorrowNotRestored(program);
    EXPECT_EQ(expected.size(), got.size()) << label;
    for (std::size_t i = 0; i < std::min(expected.size(), got.size());
         ++i) {
        EXPECT_EQ(expected[i].toString(), got[i].toString())
            << label << " diagnostic " << i;
    }
    return got.size();
}

std::string
readExample(const std::string &name)
{
    std::ifstream in(std::string(QB_EXAMPLES_DIR) + "/" + name);
    EXPECT_TRUE(in) << name;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(LintBorrowScopes, ExamplesAreTheGeneratorsText)
{
    // CI rewrites mcx.qbr's `let m` line to scale the program, so the
    // example must stay the generator's text.
    EXPECT_EQ(circuits::adderQbrSource(8), readExample("adder.qbr"));
    EXPECT_EQ(circuits::mcxQbrSource(500), readExample("mcx.qbr"));
}

TEST(LintBorrowScopes, MatchesPerQubitOracleOnTheFamilies)
{
    EXPECT_EQ(0u, expectBorrowParity(readExample("adder.qbr"),
                                     "examples/adder.qbr"));
    for (const std::uint32_t m : {50u, 250u})
        expectBorrowParity(circuits::mcxQbrSource(m),
                           "mcx m=" + std::to_string(m));
    expectBorrowParity(circuits::binaryHeavyMcxQbrSource(50),
                       "binary-heavy mcx m=50");
    for (const std::uint32_t n : {12u, 60u})
        expectBorrowParity(circuits::adderQbrSource(n),
                           "adder n=" + std::to_string(n));
}

TEST(LintBorrowScopes, MatchesPerQubitOracleOnRandomPrograms)
{
    // Random programs mix borrow@ inputs (one scope: the whole
    // program) with one verified borrow's narrower scope.
    std::size_t firing = 0;
    for (std::uint64_t seed = 0; seed < 240; ++seed) {
        Rng rng(seed);
        const std::string source = circuits::randomQbrSource(rng);
        if (expectBorrowParity(source,
                               "seed " + std::to_string(seed) + "\n" +
                                   source) > 0)
            ++firing;
    }
    EXPECT_GT(firing, 100u);
}

TEST(LintBorrowScopes, AffineFallbackIsPerScope)
{
    // w and v both have 13-wire cones (TooWide at the default window),
    // so both fall back to the affine final - each to its own scope's:
    // w's scope restores w and leaves v untouched, v's flips v.
    const std::string source = "borrow q[12];\n"
                               "borrow w;\n"
                               "for i = 1 to 12 { CNOT[q[i], w]; }\n"
                               "for i = 1 to 12 { CNOT[q[i], w]; }\n"
                               "release w;\n"
                               "borrow v;\n"
                               "for i = 1 to 12 { CNOT[q[i], v]; }\n"
                               "X[v];\n"
                               "release v;\n";
    EXPECT_EQ(1u, expectBorrowParity(source, source));
    const LintResult r = lintSource(source);
    ASSERT_EQ(2u, r.diagnostics.size()); // w's 24 CNOTs: redundant-gate
    const Diagnostic &d = r.diagnostics[1];
    EXPECT_EQ("borrow-not-restored", d.rule);
    EXPECT_EQ(6, d.loc.line);
    EXPECT_NE(std::string::npos, d.message.find("'v'"));
}

TEST(LintBorrowScopes, QubitsOfOneScopeReportInQubitOrder)
{
    // Both qubits of one register share its source location, so only
    // push order tells them apart after the position sort.
    const LintResult r = lintSource("borrow q[2];\n"
                                    "X[q[2]];\n"
                                    "X[q[1]];\n"
                                    "release q;\n");
    ASSERT_TRUE(r.elaborated);
    ASSERT_EQ(2u, r.diagnostics.size());
    for (const Diagnostic &d : r.diagnostics) {
        EXPECT_EQ("borrow-not-restored", d.rule);
        EXPECT_EQ(Severity::Error, d.severity);
        EXPECT_EQ(1, d.loc.line);
        EXPECT_EQ(8, d.loc.column);
    }
    EXPECT_NE(std::string::npos, r.diagnostics[0].message.find("'q[1]'"));
    EXPECT_NE(std::string::npos, r.diagnostics[1].message.find("'q[2]'"));
}

// --------------------------------------------- serving fingerprint

TEST(ServingFingerprint, AnalysisOptionsAreResultAffecting)
{
    core::EngineOptions base;
    core::EngineOptions off;
    off.analysis = AnalysisOptions::none();
    core::EngineOptions narrow;
    narrow.analysis.permutationWindow = 4;

    const auto fp = [](const core::EngineOptions &o) {
        return serving::ServingTier::optionsFingerprint(o, false);
    };
    EXPECT_NE(fp(base), fp(off));
    EXPECT_NE(fp(base), fp(narrow));
    EXPECT_EQ(fp(base), fp(core::EngineOptions{}));
}

TEST(ServingFingerprint, EveryAnalysisOptionsFieldIsResultAffecting)
{
    // Compile-time completeness gate: this witness mirrors
    // AnalysisOptions field for field.  If AnalysisOptions grows (or
    // shrinks), the sizes diverge and this static_assert names the
    // three places to update in lockstep: the witness + flips below
    // and the "an..." encoder in ServingTier::optionsFingerprint().
    struct AnalysisOptionsWitness
    {
        bool support;
        bool mirror;
        bool affine;
        bool permutation;
        unsigned permutationWindow;
    };
    static_assert(sizeof(AnalysisOptionsWitness) ==
                      sizeof(AnalysisOptions),
                  "AnalysisOptions changed shape: update the witness, "
                  "the per-field flips below, and "
                  "ServingTier::optionsFingerprint()");

    const auto fp = [](const core::EngineOptions &o) {
        return serving::ServingTier::optionsFingerprint(o, false);
    };
    const core::EngineOptions base;
    const auto flipped = [&fp](auto mutate) {
        core::EngineOptions o;
        mutate(o.analysis);
        return fp(o);
    };
    const std::string support =
        flipped([](AnalysisOptions &a) { a.support = false; });
    const std::string mirror =
        flipped([](AnalysisOptions &a) { a.mirror = false; });
    const std::string affine =
        flipped([](AnalysisOptions &a) { a.affine = false; });
    const std::string permutation =
        flipped([](AnalysisOptions &a) { a.permutation = false; });
    const std::string window = flipped(
        [](AnalysisOptions &a) { a.permutationWindow = 7; });
    // Each single-field flip changes the key, and no two flips
    // collide with each other.
    const std::string keys[] = {fp(base),     support, mirror,
                                affine,       permutation, window};
    for (std::size_t i = 0; i < std::size(keys); ++i)
        for (std::size_t j = i + 1; j < std::size(keys); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
}

} // namespace
} // namespace qb::analysis
