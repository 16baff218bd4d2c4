/**
 * @file
 * Classical permutation propagation on a bounded qubit window.
 *
 * For one qubit q, the pass computes the backward cone of influence of
 * q's final value (walking the gate list last-to-first, a gate is
 * RELEVANT when it writes a wire already in the cone, and its operands
 * join the cone), then - when the cone stays within a configurable
 * window - forward-simulates just the relevant gates over ALL 2^k
 * assignments of the cone.  The result is q's exact output column as a
 * function of the cone inputs:
 *
 *   - output column == input column  =>  b_q = q identically, so
 *     condition (6.1) `b_q AND NOT q` is UNSAT: discharged.
 *   - otherwise b_q != q as functions.  Inside the window this is
 *     EXACT, which the lint driver uses for a provably-unsafe
 *     diagnostic (a reversible circuit that moves q's value cannot
 *     restore it for every input: either (6.1) is satisfiable
 *     directly, or injectivity forces another output to depend on q
 *     and (6.2) is).
 *
 * Circuits wider than the window, or containing non-classical gates
 * in the cone, answer TooWide: no claim either way.
 *
 * The backward walk visits only the gates that write a cone wire,
 * taken from a WriterIndex built once per gate list and shared by
 * every qubit checked over it: one check costs the writes into its
 * cone, not the length of the circuit.
 */

#ifndef QB_ANALYSIS_PERMUTATION_H
#define QB_ANALYSIS_PERMUTATION_H

#include <cstdint>
#include <span>
#include <vector>

#include "ir/circuit.h"

namespace qb::analysis {

/** Outcome of the bounded-window permutation check for one qubit. */
enum class PermutationVerdict {
    Restored,    ///< b_q = q exactly: (6.1) discharged
    NotRestored, ///< b_q != q exactly: provably NOT safe
    TooWide,     ///< cone exceeds the window (or non-classical): no claim
};

/** Default window bound (cone qubits; 2^window assignments). */
constexpr unsigned kDefaultPermutationWindow = 10;

/**
 * For each wire of a gate list, the indices of the gates that may
 * change its value, in increasing order: the classical gates writing
 * it (an X-family target, either operand of a Swap) and the
 * non-classical gates touching it.  One compressed row per wire.
 */
class WriterIndex
{
  public:
    WriterIndex(std::span<const ir::Gate> gates,
                std::uint32_t num_qubits);

    std::uint32_t numQubits() const
    {
        return static_cast<std::uint32_t>(offsets_.size() - 1);
    }

    /** Gate indices (into the indexed list) that may change @p w. */
    std::span<const std::uint32_t> of(ir::QubitId w) const
    {
        return {writers_.data() + offsets_[w],
                writers_.data() + offsets_[w + 1]};
    }

  private:
    std::vector<std::uint32_t> offsets_; ///< numQubits() + 1 row bounds
    std::vector<std::uint32_t> writers_;
};

/**
 * Exact restoration check of qubit @p q over @p gates, bounded by
 * @p window cone qubits; @p writers must index @p gates.
 */
PermutationVerdict
permutationCheck(std::span<const ir::Gate> gates,
                 const WriterIndex &writers, ir::QubitId q,
                 unsigned window = kDefaultPermutationWindow);

/** The same check over a whole circuit, indexing it on the spot
 *  (callers checking many qubits should share one WriterIndex). */
PermutationVerdict
permutationCheck(const ir::Circuit &circuit, ir::QubitId q,
                 unsigned window = kDefaultPermutationWindow);

} // namespace qb::analysis

#endif // QB_ANALYSIS_PERMUTATION_H
