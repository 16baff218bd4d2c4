#include "analysis/permutation.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "support/logging.h"

namespace qb::analysis {

namespace {

/** Call @p f on every wire @p gate may change (see WriterIndex). */
template <typename F>
void
forEachWritten(const ir::Gate &gate, F &&f)
{
    if (gate.isClassical() && gate.kind() != ir::GateKind::Swap) {
        f(gate.target());
        return;
    }
    for (const ir::QubitId w : gate.qubits())
        f(w);
}

/** One relevant gate compiled to cone bit masks. */
struct Step
{
    bool swap = false;
    std::uint64_t controls = 0; ///< X family: all set => fire
    std::uint64_t flip = 0;     ///< target bit, or both Swap bits
};

} // namespace

WriterIndex::WriterIndex(std::span<const ir::Gate> gates,
                         std::uint32_t num_qubits)
    : offsets_(std::size_t{num_qubits} + 1, 0)
{
    qbAssert(gates.size() <= UINT32_MAX,
             "WriterIndex: gate list too long");
    for (const ir::Gate &gate : gates)
        forEachWritten(gate,
                       [&](ir::QubitId w) { ++offsets_[w + 1]; });
    std::partial_sum(offsets_.begin(), offsets_.end(),
                     offsets_.begin());
    writers_.resize(offsets_.back());
    std::vector<std::uint32_t> fill(offsets_.begin(),
                                    offsets_.end() - 1);
    for (std::size_t i = 0; i < gates.size(); ++i)
        forEachWritten(gates[i], [&](ir::QubitId w) {
            writers_[fill[w]++] = static_cast<std::uint32_t>(i);
        });
}

PermutationVerdict
permutationCheck(std::span<const ir::Gate> gates,
                 const WriterIndex &writers, ir::QubitId q,
                 unsigned window)
{
    qbAssert(q < writers.numQubits(),
             "permutationCheck: qubit out of range");
    // 2^window assignments are enumerated below; keep that sane even
    // if a caller passes a huge window.
    if (window > 20)
        window = 20;

    // Backward cone: walk last-to-first; a gate writing a cone wire
    // is relevant and every operand joins the cone.  The walk merges
    // the cone wires' writer lists, so it visits exactly the gates
    // writing a wire that was already in the cone after them.
    // pending[j] counts cone[j]'s writers the walk has not reached
    // yet (a prefix of its list).
    std::vector<ir::QubitId> cone;
    std::vector<std::size_t> pending;
    const auto join = [&](ir::QubitId w, std::size_t before) {
        if (std::find(cone.begin(), cone.end(), w) != cone.end())
            return;
        const auto list = writers.of(w);
        cone.push_back(w);
        pending.push_back(static_cast<std::size_t>(
            std::lower_bound(list.begin(), list.end(), before) -
            list.begin()));
    };
    join(q, gates.size());
    std::vector<std::uint32_t> relevant; // gate indices, reversed
    for (;;) {
        bool found = false;
        std::uint32_t next = 0;
        for (std::size_t j = 0; j < cone.size(); ++j)
            if (pending[j] > 0) {
                const std::uint32_t g =
                    writers.of(cone[j])[pending[j] - 1];
                if (!found || g > next)
                    next = g;
                found = true;
            }
        if (!found)
            break;
        for (std::size_t j = 0; j < cone.size(); ++j)
            if (pending[j] > 0 &&
                writers.of(cone[j])[pending[j] - 1] == next)
                --pending[j];
        const ir::Gate &gate = gates[next];
        // A non-classical gate touching a cone wire voids the
        // analysis: phases are invisible to a truth-table sweep.
        if (!gate.isClassical())
            return PermutationVerdict::TooWide;
        for (const ir::QubitId w : gate.qubits())
            join(w, next);
        if (cone.size() > window)
            return PermutationVerdict::TooWide;
        relevant.push_back(next);
    }

    // Forward-simulate the relevant gates over every assignment of
    // the cone; wires outside the cone cannot reach q's output (that
    // is what the backward walk established), so they need no values.
    // Bit j of a state is the value of wire cone[j]; q is bit 0.
    const auto bit = [&](ir::QubitId w) {
        return std::uint64_t{1}
               << (std::find(cone.begin(), cone.end(), w) -
                   cone.begin());
    };
    std::vector<Step> steps;
    steps.reserve(relevant.size());
    for (std::size_t r = relevant.size(); r-- > 0;) {
        const ir::Gate &gate = gates[relevant[r]];
        Step step;
        if (gate.kind() == ir::GateKind::Swap) {
            step.swap = true;
            step.flip = bit(gate.qubits()[0]) | bit(gate.qubits()[1]);
        } else {
            for (const ir::QubitId c : gate.controls())
                step.controls |= bit(c);
            step.flip = bit(gate.target());
        }
        steps.push_back(step);
    }
    const std::uint64_t count = std::uint64_t{1} << cone.size();
    for (std::uint64_t input = 0; input < count; ++input) {
        std::uint64_t state = input;
        for (const Step &step : steps) {
            const bool fire = step.swap
                ? std::popcount(state & step.flip) == 1
                : (state & step.controls) == step.controls;
            if (fire)
                state ^= step.flip;
        }
        if ((state ^ input) & 1)
            return PermutationVerdict::NotRestored;
    }
    return PermutationVerdict::Restored;
}

PermutationVerdict
permutationCheck(const ir::Circuit &circuit, ir::QubitId q,
                 unsigned window)
{
    return permutationCheck(circuit.gates(),
                            WriterIndex(circuit.gates(),
                                        circuit.numQubits()),
                            q, window);
}

} // namespace qb::analysis
