/**
 * @file
 * QBorrow source-text generators for the paper's two benchmark
 * programs (Sections 6.2 and 10.4).
 *
 * The emitted text matches the artifact listings (adder.qbr, mcx.qbr)
 * up to the leading `let` parameter, so the benchmarks exercise the
 * complete parse -> elaborate -> verify pipeline exactly as the
 * paper's tool does.
 */

#ifndef QB_CIRCUITS_QBR_TEXT_H
#define QB_CIRCUITS_QBR_TEXT_H

#include <cstdint>
#include <string>

#include "support/rng.h"

namespace qb::circuits {

/**
 * adder.qbr with `let n = <n>`.
 * @throws std::invalid_argument when n < 3 (the program is
 *         ill-formed below that).
 */
std::string adderQbrSource(std::uint32_t n);

/**
 * mcx.qbr with `let m = <m>`.
 * @throws std::invalid_argument when m < 4 (the program is
 *         ill-formed below that).
 */
std::string mcxQbrSource(std::uint32_t m);

/**
 * mcx.qbr wrapped in a self-inverse CNOT/X/CCNOT dressing of the
 * dirty wire (the adder's carry motif).  Verdicts are identical to
 * mcxQbrSource(m) - the dressing undoes itself - but the Tseitin
 * encoding of the dressed conditions gains nested, argument-sharing
 * conjunctions, so its binary implication graph carries equivalence
 * cycles and transitively redundant edges, which keeps the solver's
 * binary watch lists busy.  The bench-smoke CI crash gate runs this
 * program.
 * @throws std::invalid_argument when m < 4 (see mcxQbrSource()).
 */
std::string binaryHeavyMcxQbrSource(std::uint32_t m);

/**
 * Mirrored-construction benchmark program: a CCNOT ladder over m
 * skip-verified inputs, undone gate-for-gate, around a restore cell
 * on the one dirty qubit.
 *
 * The cell applies `(a AND b) XOR (a AND NOT b) XOR a = 0` to the
 * dirty wire - an identity the formula arena cannot constant-fold
 * (it has no distributivity rule), so condition (6.1) reaches the
 * static analyzer as a non-constant formula and is discharged by the
 * permutation pass over a 3-wire cone, independent of m.  Exact
 * textual mirrors are useless for this purpose: XOR flattening and
 * hash-consing fold them to a constant before any solver or analyzer
 * ever runs.
 *
 * @throws std::invalid_argument when m < 3 (the ladder needs three
 *         wires).
 */
std::string mirrorMcxQbrSource(std::uint32_t m);

/**
 * Wide-linear-mirror benchmark program: the dirty qubit's restore
 * cone spans ALL n+1 wires, so the windowed permutation pass answers
 * TooWide at any n past the window - only the GF(2)-affine dataflow
 * pass (dataflow.h), which has no width bound, discharges it
 * statically.
 *
 * Shape: a triangular CNOT mixing pass over n skip-verified inputs
 * (pulling every input into the cone), the dirty qubit w folded with
 * every mixed input, an X, the fold undone in a ROTATED gate order
 * (defeating the mirror pass's suffix scan; the formula arena would
 * fold an exact textual mirror by itself), and the X undone.  Every
 * gate is linear, so the affine pass proves both conditions of
 * Theorem 6.4 UNSAT - and, because it is consulted BEFORE formula
 * construction, the engine also skips the O(wires x circuit) (6.2)
 * cofactor build that dominates at large n.  With `--analysis off`
 * the program still verifies (the arena folds the built conditions),
 * so verdicts are bit-identical either way.
 *
 * @throws std::invalid_argument when n < 4 (the mixing pass needs
 *         enough wires to be meaningful).
 */
std::string wideLinearMirrorQbrSource(std::uint32_t n);

/**
 * Knobs for randomQbrSource().  The defaults reproduce the
 * distribution the random-pipeline property tests have always used:
 * 3-5 skip-verified inputs, a 0-2 gate prefix, one verified borrow
 * with a 2-7 gate body that touches the borrowed wire 60% of the
 * time, and a 0-2 gate suffix, gate kinds drawn uniformly.  The fuzz
 * harness (support/fuzz.h) raises cnotWeight to push the generated
 * programs into the binary-implication-heavy region the solver's
 * binary watch lists handle.
 */
struct RandomQbrOptions
{
    std::uint32_t minQubits = 3;     ///< skip-verified input wires, low
    std::uint32_t maxQubits = 5;     ///< skip-verified input wires, high
    std::uint32_t maxPrefixGates = 2;
    std::uint32_t minBodyGates = 2;
    std::uint32_t maxBodyGates = 7;
    std::uint32_t maxSuffixGates = 2;
    /** Probability a body gate's operand set includes the borrow. */
    double borrowTouchProb = 0.6;
    /** @name Relative gate-kind weights (need not sum to 1). @{ */
    double xWeight = 1.0;
    double cnotWeight = 1.0;
    double ccnotWeight = 1.0;
    /** @} */
};

/**
 * Random QBorrow source with one verified `borrow a` block between a
 * gate prefix and suffix over skip-verified inputs.  Every emitted
 * program parses and elaborates; whether the borrow safely
 * uncomputes is up to chance - which is the point: the text feeds
 * the full parse -> elaborate -> verify pipeline in the property
 * tests and the differential fuzz harness, with verdicts
 * cross-checked against brute force.  Deterministic in @p rng: the
 * same seed and options yield byte-identical text on every platform.
 */
std::string randomQbrSource(Rng &rng,
                            const RandomQbrOptions &options = {});

} // namespace qb::circuits

#endif // QB_CIRCUITS_QBR_TEXT_H
