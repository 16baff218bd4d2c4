/**
 * @file
 * Full pipeline on the paper's adder benchmark (Section 6.2 /
 * Figure 10.1): generate adder.qbr for a chosen n, parse, elaborate,
 * and verify the safe uncomputation of all n-1 dirty qubits, printing
 * per-phase timings.  Mirrors the artifact's `make adder` target.
 *
 * Usage: verify_adder [n]   (default n = 50, as in adder.qbr)
 */

#include <cstdio>
#include <cstdlib>

#include "circuits/qbr_text.h"
#include "core/engine.h"
#include "core/verifier.h"
#include "lang/elaborate.h"
#include "support/timer.h"

int
main(int argc, char **argv)
{
    std::uint32_t n = 50;
    if (argc > 1)
        n = static_cast<std::uint32_t>(std::atoi(argv[1]));
    if (n < 3) {
        std::fprintf(stderr, "n must be >= 3\n");
        return 2;
    }

    const std::string source = qb::circuits::adderQbrSource(n);
    std::printf("== adder.qbr with n = %u ==\n", n);

    qb::Timer frontend;
    const auto program = qb::lang::elaborateSource(source);
    std::printf("frontend: %u qubits, %zu gates (%.3f s)\n",
                program.circuit.numQubits(), program.circuit.size(),
                frontend.seconds());

    // One engine session covers all n-1 dirty qubits: they are
    // borrowed together, so they share one arena and one lane.
    qb::core::EngineOptions options;
    options.lane.wantCounterexample = false;
    const auto result = qb::core::verifyAll(program, options);

    double build = 0, encode = 0, solve = 0;
    std::size_t structural = 0;
    for (const auto &r : result.qubits) {
        build += r.buildSeconds;
        encode += r.encodeSeconds;
        solve += r.solveSeconds;
        structural += r.solvedStructurally;
    }
    std::printf("%s\n", result.summary().c_str());
    std::printf("phases: build %.3f s, encode %.3f s, solve %.3f s\n",
                build, encode, solve);
    std::printf("%zu of %zu qubits discharged during formula "
                "construction\n",
                structural, result.qubits.size());
    return result.allSafe() ? 0 : 1;
}
