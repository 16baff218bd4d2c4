/**
 * @file
 * Generic dataflow framework over ir::Circuit plus the three lattice
 * domains the static analyzer and the lint driver share.
 *
 * An elaborated circuit is a straight-line gate list: loops are
 * unrolled and branches rejected by elaboration, so dependency order
 * IS gate order and there are no join points in the control-flow
 * sense.  The fixpoint engine is therefore a single monotone sweep -
 * forward (runForward / forwardTrace) or backward (runBackward /
 * backwardTrace) - parameterized by a Domain:
 *
 *   struct Domain {
 *       using State = ...;                    // a lattice element
 *       static State initial(const ir::Circuit &);
 *       static void transfer(const ir::Gate &, State &);  // forward
 *       static void transferBackward(const ir::Gate &, State &);
 *       static void join(State &, const State &);
 *   };
 *
 * TERMINATION: every domain here is a finite lattice per circuit
 * (bitset rows over numQubits wires, plus a greatest element), every
 * transfer is monotone, and the gate list is finite and loop-free, so
 * the single ordered sweep reaches the least fixpoint exactly - no
 * iteration, no widening.  join() exists for callers that merge
 * states from multiple speculative positions (and for future IR with
 * real join points); the sweep itself never needs it.
 *
 * SOUNDNESS: each domain only ever claims facts in the safe
 * direction.  The affine domain tracks a wire's value as an exact
 * XOR-affine combination of initial wire values or as ⊤ (unknown);
 * every non-⊤ claim is an equality of Boolean functions, every
 * imprecision collapses to ⊤, and ⊤ is sticky - no gate can
 * un-poison a wire, because every classical gate is a read-modify-
 * write of its target (X-family: t ^= AND(controls)) or a permutation
 * (Swap).  The constants domain is the constant fragment of the
 * affine lattice, and liveness only ever grows the live set along a
 * backward sweep (modulo Swap, which permutes it exactly).
 */

#ifndef QB_ANALYSIS_DATAFLOW_H
#define QB_ANALYSIS_DATAFLOW_H

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ir/circuit.h"

namespace qb::analysis {

// --------------------------------------------------------------- engine

/** Fold every gate of @p gates into @p state, in gate order, and
 *  return the final state (the forward fixpoint). */
template <typename Domain>
typename Domain::State
runForward(std::span<const ir::Gate> gates, typename Domain::State state)
{
    for (const ir::Gate &gate : gates)
        Domain::transfer(gate, state);
    return state;
}

/** runForward() over every gate of @p circuit. */
template <typename Domain>
typename Domain::State
runForward(const ir::Circuit &circuit, typename Domain::State state)
{
    return runForward<Domain>(std::span<const ir::Gate>(circuit.gates()),
                              std::move(state));
}

/**
 * Forward sweep keeping every intermediate state: trace[i] is the
 * state at the boundary BEFORE gate i, trace[size()] the final state.
 * Costs size()+1 state copies - callers on large circuits that only
 * need boundary equality should prefer runForward() plus
 * State::hash() bookkeeping.
 */
template <typename Domain>
std::vector<typename Domain::State>
forwardTrace(const ir::Circuit &circuit, typename Domain::State initial)
{
    std::vector<typename Domain::State> trace;
    trace.reserve(circuit.size() + 1);
    trace.push_back(std::move(initial));
    for (const ir::Gate &gate : circuit.gates()) {
        typename Domain::State next = trace.back();
        Domain::transfer(gate, next);
        trace.push_back(std::move(next));
    }
    return trace;
}

/** Fold every gate of @p circuit into @p state in REVERSE gate order
 *  (the backward fixpoint, e.g. liveness from a boundary seed). */
template <typename Domain>
typename Domain::State
runBackward(const ir::Circuit &circuit, typename Domain::State state)
{
    const auto &gates = circuit.gates();
    for (auto it = gates.rbegin(); it != gates.rend(); ++it)
        Domain::transferBackward(*it, state);
    return state;
}

/**
 * Backward sweep keeping every intermediate state: trace[i] is the
 * state at the boundary BEFORE gate i (i.e. what holds of values
 * flowing INTO gate i), trace[size()] the boundary seed itself.
 */
template <typename Domain>
std::vector<typename Domain::State>
backwardTrace(const ir::Circuit &circuit,
              typename Domain::State boundary)
{
    const auto &gates = circuit.gates();
    std::vector<typename Domain::State> trace(circuit.size() + 1,
                                              boundary);
    for (std::size_t i = gates.size(); i-- > 0;) {
        typename Domain::State state = trace[i + 1];
        Domain::transferBackward(gates[i], state);
        trace[i] = std::move(state);
    }
    return trace;
}

// -------------------------------------------------- GF(2)-affine domain

/**
 * GF(2)-affine value state: each wire's current value is tracked as
 * an exact XOR of a subset of INITIAL wire values plus a constant bit
 * (one bitset row per wire), or as ⊤ when any nonlinearity reached
 * it.  Unlike the support sets (support.h), non-⊤ rows are EXACT
 * function descriptions, not over-approximations: cancelled
 * contributions (w ^= a; w ^= a) vanish from the row.
 *
 * Transfer functions:
 *   X[t]                 : const(t) ^= 1
 *   CNOT[c,t]            : row(t) ^= row(c)   (⊤ if either side is ⊤)
 *   SWAP[a,b]            : rows exchange
 *   CCNOT/MCX[C..., t]   : a control with affine-constant value 0
 *                          kills the gate (no-op); constant-1
 *                          controls drop out; one surviving symbolic
 *                          control degenerates to CNOT, none to X;
 *                          two or more (or any ⊤ control) drive the
 *                          target to ⊤.
 *   non-classical gate   : poisons the whole state (every wire ⊤),
 *                          matching SupportSets::applyGate.
 *
 * A 64-bit digest of the whole state is maintained incrementally
 * (O(row) per mutation), so boundary-equality scans over long
 * circuits cost O(gates * words) instead of O(gates * wires * words).
 * hash() equality is a candidate filter only; confirm with ==.
 */
class AffineState
{
  public:
    /** Identity state: wire w holds exactly its initial value. */
    explicit AffineState(std::uint32_t num_qubits);

    /** Forward transfer of one gate (see the table above). */
    void applyGate(const ir::Gate &gate);

    /** Lattice join: wires whose descriptions differ go to ⊤. */
    void join(const AffineState &other);

    /** Seed wire @p wire as the known constant @p value (|0> allocs
     *  before their first gate).  Overwrites the identity row. */
    void seedConstant(ir::QubitId wire, bool value);

    /** Did nonlinearity (or a non-classical gate) reach @p wire? */
    bool isTop(ir::QubitId wire) const;

    /** Any wire at ⊤?  (States without ⊤ describe an invertible
     *  affine map when unseeded - the redundant-gate certificate.) */
    bool anyTop() const;

    /** Is @p wire provably equal to its own initial value? */
    bool isIdentity(ir::QubitId wire) const;

    /**
     * May @p wire's current value depend on initial value @p q?
     * ⊤ answers true (conservative); an exact row answers exactly.
     */
    bool mayDependOn(ir::QubitId wire, ir::QubitId q) const;

    /** The wire's provably constant value, or nullopt (⊤ or
     *  genuinely input-dependent). */
    std::optional<bool> constantOf(ir::QubitId wire) const;

    /** Incrementally maintained digest of the full state; equal
     *  states have equal hashes (filter, then confirm with ==). */
    std::uint64_t hash() const { return hash_; }

    bool operator==(const AffineState &other) const;

    std::uint32_t numQubits() const { return numQubits_; }

  private:
    std::size_t words() const
    {
        return (static_cast<std::size_t>(numQubits_) + 63) / 64;
    }
    std::uint64_t *row(ir::QubitId wire)
    {
        return rows_.data() + static_cast<std::size_t>(wire) * words();
    }
    const std::uint64_t *row(ir::QubitId wire) const
    {
        return rows_.data() + static_cast<std::size_t>(wire) * words();
    }
    bool bit(const std::vector<std::uint64_t> &bits,
             ir::QubitId wire) const
    {
        return (bits[wire / 64] >> (wire % 64)) & 1;
    }
    bool rowEmpty(ir::QubitId wire) const;
    /** Digest of one wire's full description (row, const, ⊤, index);
     *  the state hash is the XOR over all wires. */
    std::uint64_t wireDigest(ir::QubitId wire) const;
    void setTop(ir::QubitId wire);
    void poison();

    std::uint32_t numQubits_;
    std::vector<std::uint64_t> rows_;   ///< numQubits rows of words()
    std::vector<std::uint64_t> consts_; ///< one bit per wire
    std::vector<std::uint64_t> top_;    ///< one bit per wire
    std::uint64_t hash_ = 0;
};

/** Dataflow-engine adapter for AffineState. */
struct AffineDomain
{
    using State = AffineState;
    static State initial(const ir::Circuit &circuit)
    {
        return State(circuit.numQubits());
    }
    static void transfer(const ir::Gate &gate, State &state)
    {
        state.applyGate(gate);
    }
    static void join(State &into, const State &other)
    {
        into.join(other);
    }
};

// ------------------------------------------------------ constants domain

/**
 * Forward known-bit facts per wire: Zero, One, or unknown.
 *
 * Implemented as the constant fragment of the affine lattice (a
 * Galois restriction of AffineState) rather than by direct
 * propagation: direct propagation loses every constant that is
 * RE-derived by linear cancellation - e.g. `alloc c; CNOT[w,c];
 * CNOT[c,w]` leaves w provably |0> (w ^= w cancels through c), a fact
 * plain constant folding cannot see.  This is what lets nonlinear
 * gates with dead controls stay linear in client passes.
 */
class ConstantState
{
  public:
    explicit ConstantState(std::uint32_t num_qubits)
        : affine_(num_qubits)
    {
    }

    /** Seed wire @p wire as known constant @p v (|0> allocs). */
    void setKnown(ir::QubitId wire, bool v)
    {
        affine_.seedConstant(wire, v);
    }

    void applyGate(const ir::Gate &gate) { affine_.applyGate(gate); }

    /** The wire's known constant value, or nullopt. */
    std::optional<bool> value(ir::QubitId wire) const
    {
        return affine_.constantOf(wire);
    }

    void join(const ConstantState &other)
    {
        affine_.join(other.affine_);
    }

    std::uint32_t numQubits() const { return affine_.numQubits(); }

  private:
    AffineState affine_;
};

/** Dataflow-engine adapter for ConstantState. */
struct ConstantDomain
{
    using State = ConstantState;
    static State initial(const ir::Circuit &circuit)
    {
        return State(circuit.numQubits());
    }
    static void transfer(const ir::Gate &gate, State &state)
    {
        state.applyGate(gate);
    }
    static void join(State &into, const State &other)
    {
        into.join(other);
    }
};

// ------------------------------------------------------- liveness domain

/**
 * Backward liveness: which wires' CURRENT values are observed later -
 * read by a control, consumed by a non-classical gate, or flowing
 * (possibly via Swaps) into a wire live at the chosen boundary.
 *
 * Seed the boundary with setLive() (typically: every borrowed wire,
 * whose final value escapes to its owner) and sweep backward.  The
 * X-family transfer reflects reversibility: a live target stays live
 * (t ^= AND(C) reads the old t) and makes its controls live; Swap
 * permutes the live set exactly - the only "kill" a reversible gate
 * set admits.  Non-classical gates conservatively read all operands.
 */
class LivenessState
{
  public:
    /** All wires dead (seed the boundary with setLive). */
    explicit LivenessState(std::uint32_t num_qubits);

    void setLive(ir::QubitId wire);
    bool isLive(ir::QubitId wire) const;

    /** Backward transfer of one gate. */
    void applyGateBackward(const ir::Gate &gate);

    /** Lattice join: union of live sets. */
    void join(const LivenessState &other);

    std::uint32_t numQubits() const { return numQubits_; }

  private:
    std::uint32_t numQubits_;
    std::vector<std::uint64_t> bits_;
};

/** Dataflow-engine adapter for LivenessState. */
struct LivenessDomain
{
    using State = LivenessState;
    static State initial(const ir::Circuit &circuit)
    {
        return State(circuit.numQubits());
    }
    static void transferBackward(const ir::Gate &gate, State &state)
    {
        state.applyGateBackward(gate);
    }
    static void join(State &into, const State &other)
    {
        into.join(other);
    }
};

// ------------------------------------------------------------- clients

/**
 * Does some gate of @p circuit WRITE wire @p q (X-family target or
 * Swap operand)?  Unwritten wires trivially satisfy b_q = q; the
 * engine uses this to skip the affine consult where constant folding
 * already wins in O(1).
 */
bool writesWire(const ir::Circuit &circuit, ir::QubitId q);

} // namespace qb::analysis

#endif // QB_ANALYSIS_DATAFLOW_H
