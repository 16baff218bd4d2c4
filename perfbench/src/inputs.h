/**
 * @file
 * Seeded known-answer inputs of every workload.  Generation and the
 * expected verdicts are computed before any timed phase; the program
 * under test only ever receives the generated text.
 */

#ifndef QBBENCH_INPUTS_H
#define QBBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/verifier.h"
#include "lang/elaborate.h"

namespace qbbench {

/** Request groups of serve-mix (also used as trace/report labels). */
enum class Group {
    OneShot,      ///< mcx-cli / adder-sat program
    Cold,         ///< distinct random program, first sight
    ExactRepeat,  ///< same source and options as an earlier request
    OptionRepeat, ///< earlier cold source, different options object
    Discharged,   ///< analyzer-discharged (wide-linear / mirror mcx)
    Heavy,        ///< mcx m=50..250 or adder n=12..32
};

const char *groupName(Group group);

/** One generated program with its known answer. */
struct Input
{
    std::string name;
    std::string source;
    Group group = Group::OneShot;
    /** Known verdict of every `borrow` (verified) qubit, in qubit-id
     *  order - exactly the qubits a report lists. */
    std::vector<qb::core::Verdict> expected;
    /** serve-mix: send options {"counterexample": false}. */
    bool noCounterexample = false;
};

/**
 * mcx-cli: mcxQbrSource at n = 2m-1 in {999, 1999}; adder-sat:
 * adderQbrSource at n in {60, 80}, smaller first.  Safe by
 * construction; elaboration lists the verified qubits.  The inputs
 * are the paper's fixed sizes, so they do not depend on the seed:
 * runs with different seeds are replicas.  (Program order changes the
 * heap a process carries into its second program, and with it peak
 * RSS, so it is fixed too.)
 */
std::vector<Input> oneShotInputs(const std::string &workload);

/** The serve-mix request stream (see README.md for the shares). */
std::vector<Input> serveMixStream(std::uint64_t seed);

/**
 * Check @p verdicts against @p input's known answer; on mismatch
 * return a one-line description, else an empty string.
 */
std::string checkVerdicts(const Input &input,
                          const std::vector<qb::core::Verdict> &verdicts);

/**
 * Check that @p cex (an input assignment by qubit id) really violates
 * the safe-uncomputation condition for qubit @p q of @p program over
 * its borrow...release scope, by classical simulation.
 */
bool counterexampleHolds(const qb::lang::ElaboratedProgram &program,
                         qb::ir::QubitId q, const std::vector<bool> &cex);

} // namespace qbbench

#endif // QBBENCH_INPUTS_H
