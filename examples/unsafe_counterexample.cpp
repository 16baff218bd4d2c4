/**
 * @file
 * The Figure 1.4 phenomenon: a circuit that uncomputes an ancilla
 * safely *as a clean qubit* (every computational-basis state is
 * restored) yet is unsafe *as a dirty qubit* (the superposition |+>
 * is not restored).
 *
 * The example shows all three views: the naive clean-qubit check, the
 * SAT verifier's verdict with a counterexample, and direct statevector
 * evidence that the reduced state of the ancilla changes.
 */

#include <cstdio>

#include "circuits/paper_figures.h"
#include "core/engine.h"
#include "core/reference.h"
#include "core/report.h"
#include "core/verifier.h"
#include "sim/statevector.h"

int
main()
{
    const qb::ir::Circuit circuit =
        qb::circuits::fig14Counterexample();
    const qb::ir::QubitId a = 0;
    std::printf("circuit (%s):\n%s", circuit.name().c_str(),
                circuit.toString().c_str());

    // 1. The naive criterion: restoration on the computational basis.
    std::printf("safe as a CLEAN qubit (all basis states restored): "
                "%s\n",
                qb::core::safeAsCleanQubit(circuit, a) ? "yes" : "no");

    // 2. The paper's verifier: formula (6.1) passes but (6.2) fails.
    // An engine session builds the circuit's formulas once, so asking
    // about further qubits of the same circuit skips that scan; each
    // condition is decided in a fresh solver.
    qb::core::VerificationEngine engine(circuit);
    const qb::core::QubitResult r = engine.verify(a);
    std::printf("safe as a DIRTY qubit (Theorem 6.4): %s\n",
                qb::core::verdictName(r.verdict));
    if (r.failed == qb::core::FailedCondition::PlusRestoration)
        std::printf("  violated condition: |+> restoration "
                    "(formula (6.2) satisfiable)\n");
    std::printf("machine-readable result: %s\n",
                qb::core::toJson(r).c_str());

    // 3. Physical evidence: start a in |+>, the other qubit in |0>.
    qb::sim::StateVector sv(circuit.numQubits());
    sv.hadamard(a);
    sv.applyCircuit(circuit);
    const qb::sim::Matrix reduced = sv.reducedDensity(a);
    std::printf("reduced state of a after the circuit (started "
                "as |+>):\n%s",
                reduced.toString().c_str());
    std::printf("|+><+| would have off-diagonals 0.5; the state "
                "decohered, so a was NOT restored.\n");

    // Contrast with the Figure 1.3 circuit, which is dirty-safe.
    const auto safe = qb::circuits::cccnotDirty();
    std::printf("\nFigure 1.3 CCCNOT, dirty qubit '%s': %s\n",
                safe.label(qb::circuits::kCccnotDirtyQubit).c_str(),
                qb::core::verdictName(
                    qb::core::verifyQubit(
                        safe, qb::circuits::kCccnotDirtyQubit)
                        .verdict));
    return r.verdict == qb::core::Verdict::Unsafe ? 0 : 1;
}
