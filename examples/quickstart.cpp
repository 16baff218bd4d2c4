/**
 * @file
 * Quickstart: the 60-second tour of the qborrow API.
 *
 * Parses an inline QBorrow program and verifies the safe uncomputation
 * of every `borrow`-introduced dirty qubit through the session-based
 * VerificationEngine API, streaming each result as it is produced.
 *
 * Build and run:
 *   cmake -B build -S . && cmake --build build
 *   ./build/quickstart
 */

#include <cstdio>

#include "core/engine.h"
#include "core/verifier.h"
#include "lang/elaborate.h"

int
main()
{
    // A tiny program in the paper's QBorrow language (Section 10.3):
    // the Figure 1.3 construction - a three-controlled NOT built from
    // four Toffolis and one borrowed dirty qubit.
    const char *source = R"(
        // Working qubits; borrow@ skips their verification.
        borrow@ q[4];
        // The dirty ancilla we actually want to verify.
        borrow a;
        CCNOT[q[1], q[2], a];
        CCNOT[a, q[3], q[4]];
        CCNOT[q[1], q[2], a];
        CCNOT[a, q[3], q[4]];
        release a;
    )";

    // Parse + elaborate: loops are unrolled, registers resolved, and
    // each qubit's borrow...release lifetime recorded.
    const qb::lang::ElaboratedProgram program =
        qb::lang::elaborateSource(source);
    std::printf("program: %u qubits, %zu gates\n",
                program.circuit.numQubits(), program.circuit.size());

    // Verify every dirty qubit (Theorem 6.4: two UNSAT checks each)
    // through an engine session: qubits sharing a lifetime share one
    // formula arena, each condition gets its own solver, and the
    // observer sees each result the moment it is decided.
    const qb::core::ProgramResult result = qb::core::verifyAll(
        program, qb::core::EngineOptions{},
        [](const qb::core::QubitResult &r) {
            std::printf("  %-6s -> %s%s\n", r.name.c_str(),
                        qb::core::verdictName(r.verdict),
                        r.solvedStructurally
                            ? " (discharged during construction)"
                            : "");
        });
    std::printf("%s\n", result.summary().c_str());

    // An unsafe variant: forget one of the uncomputation Toffolis.
    // verifySource() is the one-shot compatibility wrapper - handy
    // when there is a single program string and nothing to reuse.
    const qb::core::ProgramResult broken =
        qb::core::verifySource(R"(
            borrow@ q[4];
            borrow a;
            CCNOT[q[1], q[2], a];
            CCNOT[a, q[3], q[4]];
            CCNOT[a, q[3], q[4]];
            release a;
        )");
    std::printf("broken variant: %s\n", broken.summary().c_str());
    if (!broken.qubits.empty() && broken.qubits[0].counterexample) {
        std::printf("  counterexample input:");
        const auto &cex = *broken.qubits[0].counterexample;
        for (bool b : cex)
            std::printf(" %d", b ? 1 : 0);
        std::printf("\n");
    }
    return result.allSafe() && !broken.allSafe() ? 0 : 1;
}
