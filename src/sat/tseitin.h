/**
 * @file
 * Tseitin transformation from the hash-consed Boolean DAG to CNF.
 *
 * The verifier asserts a formula and asks the SAT solver whether it is
 * satisfiable (safe uncomputation corresponds to UNSAT of formulas (6.1)
 * and (6.2) in the paper).  Each distinct DAG node gets one CNF variable;
 * sharing in the DAG therefore translates directly into a compact CNF.
 *
 * The encoding is the full biconditional one: both directions of
 * every AND definition, and every k-ary XOR folded into a chain of
 * k - 1 two-input XOR definitions (four clauses each).
 *
 * Every condition is encoded on its own into a self-contained CNF for
 * a fresh solver, so whole-database preprocessing stays sound.
 */

#ifndef QB_SAT_TSEITIN_H
#define QB_SAT_TSEITIN_H

#include <unordered_map>

#include "boolexpr/arena.h"
#include "sat/cnf.h"

namespace qb::sat {

/** Result of an encoding: the CNF plus variable maps. */
struct TseitinResult
{
    Cnf cnf;
    /** CNF variable for each encoded DAG node. */
    std::unordered_map<bexp::NodeRef, Var> nodeVar;
    /** CNF variable for each Boolean input variable id. */
    std::unordered_map<std::uint32_t, Var> inputVar;
    /**
     * True when the root reduced to a constant and no solving is
     * needed; rootConstValue then holds the verdict.
     */
    bool rootIsConst = false;
    bool rootConstValue = false;
};

/** Encode the assertion "root is true" into CNF. */
TseitinResult encodeAssertTrue(const bexp::Arena &arena,
                               bexp::NodeRef root);

} // namespace qb::sat

#endif // QB_SAT_TSEITIN_H
