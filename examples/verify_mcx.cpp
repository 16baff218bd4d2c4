/**
 * @file
 * Full pipeline on the paper's MCX benchmark (Section 10.4): generate
 * mcx.qbr for a chosen m, parse, elaborate, and verify the single
 * dirty ancilla of the (2m-1)-controlled NOT.
 *
 * Usage: verify_mcx [m]        (default m = 250; the paper's file
 *                               uses m = 1750)
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
    std::uint32_t m = 250;
    if (argc > 1)
        m = static_cast<std::uint32_t>(std::atoi(argv[1]));
    if (m < 4) {
        std::fprintf(stderr, "m must be >= 4\n");
        return 2;
    }

    std::printf("== mcx.qbr with m = %u (a %u-controlled NOT) ==\n",
                m, 2 * m - 1);
    qb::Timer frontend;
    const auto program =
        qb::lang::elaborateSource(qb::circuits::mcxQbrSource(m));
    std::printf("frontend: %u qubits, %zu gates (%.3f s)\n",
                program.circuit.numQubits(), program.circuit.size(),
                frontend.seconds());

    qb::core::EngineOptions options;
    options.lane.wantCounterexample = false;
    const auto result = qb::core::verifyAll(program, options);
    const auto &r = result.qubits.at(0);
    std::printf("%s -> %s (build %.3f s, solve %.3f s, "
                "%zu formula nodes)\n",
                r.name.c_str(), qb::core::verdictName(r.verdict),
                r.buildSeconds, r.solveSeconds, r.formulaNodes);
    if (r.verdict != qb::core::Verdict::Safe)
        return 1;
    return 0;
}
