#include "sat/tseitin.h"

#include <vector>

#include "support/logging.h"

namespace qb::sat {

namespace {

using bexp::Arena;
using bexp::NodeKind;
using bexp::NodeRef;

/** Working state for one encoding run. */
struct Encoder
{
    const Arena &arena;
    TseitinMode mode;
    unsigned xorChunk;
    TseitinResult result;
    std::unordered_map<NodeRef, Lit> litOf;
    // Polarities under which each node is referenced (PG mode).
    std::unordered_map<NodeRef, unsigned> polarity; // bit0 pos, bit1 neg

    void computePolarities(NodeRef root);
    Lit encode(NodeRef root);
    Lit defineXorChain(const std::vector<Lit> &inputs);
    void emitXorDefinition(Lit out, const std::vector<Lit> &inputs);
};

void
Encoder::computePolarities(NodeRef root)
{
    std::vector<std::pair<NodeRef, unsigned>> stack{{root, 1u}};
    while (!stack.empty()) {
        auto [ref, pol] = stack.back();
        stack.pop_back();
        unsigned &cur = polarity[ref];
        if ((cur & pol) == pol)
            continue;
        cur |= pol;
        const NodeKind k = arena.kind(ref);
        if (k == NodeKind::And) {
            for (NodeRef c : arena.children(ref))
                stack.emplace_back(c, pol);
        } else if (k == NodeKind::Xor) {
            // XOR is non-monotone: children occur in both polarities,
            // except the pure-negation case which just flips.
            const auto kids = arena.children(ref);
            const bool negation =
                kids.size() == 2 && kids[0] == bexp::kTrue;
            for (NodeRef c : kids) {
                if (c == bexp::kTrue)
                    continue;
                if (negation) {
                    const unsigned flipped =
                        ((pol & 1u) << 1) | ((pol >> 1) & 1u);
                    stack.emplace_back(c, flipped);
                } else {
                    stack.emplace_back(c, 3u);
                }
            }
        }
    }
}

/**
 * Direct clausal expansion of out = xor(inputs): forbid every
 * odd-parity assignment of (out, inputs).
 */
void
Encoder::emitXorDefinition(Lit out, const std::vector<Lit> &inputs)
{
    const std::size_t k = inputs.size();
    qbAssert(k >= 1 && k <= 30, "XOR definition arity out of range");
    std::vector<Lit> all;
    all.push_back(out);
    all.insert(all.end(), inputs.begin(), inputs.end());
    const std::size_t n = all.size();
    for (std::uint32_t a = 0; a < (1u << n); ++a) {
        if (__builtin_popcount(a) % 2 == 0)
            continue; // even parity satisfies out ^ xor(inputs) = 0
        LitVec clause;
        clause.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            const bool bit = (a >> i) & 1u;
            // Literal false under the forbidden assignment.
            clause.push_back(bit ? ~all[i] : all[i]);
        }
        result.cnf.addClause(std::move(clause));
    }
}

Lit
Encoder::defineXorChain(const std::vector<Lit> &inputs)
{
    qbAssert(!inputs.empty(), "empty XOR chain");
    if (inputs.size() == 1)
        return inputs[0];
    // A group below {acc, one input} cannot make progress.
    const unsigned chunk = xorChunk < 2 ? 2 : xorChunk;
    std::size_t pos = 0;
    Lit acc = inputs[pos++];
    while (pos < inputs.size()) {
        std::vector<Lit> group{acc};
        while (pos < inputs.size() && group.size() < chunk)
            group.push_back(inputs[pos++]);
        const Lit out = mkLit(result.cnf.newVar());
        emitXorDefinition(out, group);
        acc = out;
    }
    return acc;
}

Lit
Encoder::encode(NodeRef root)
{
    std::vector<std::pair<NodeRef, bool>> stack{{root, false}};
    while (!stack.empty()) {
        auto [ref, expanded] = stack.back();
        stack.pop_back();
        if (litOf.count(ref))
            continue;
        const NodeKind k = arena.kind(ref);
        switch (k) {
          case NodeKind::Const:
            panic("constant below the root must have been folded");
          case NodeKind::Var: {
            const Var v = result.cnf.newVar();
            result.inputVar.emplace(arena.varId(ref), v);
            result.nodeVar.emplace(ref, v);
            litOf.emplace(ref, mkLit(v));
            break;
          }
          case NodeKind::And:
          case NodeKind::Xor: {
            if (!expanded) {
                stack.emplace_back(ref, true);
                for (NodeRef c : arena.children(ref))
                    if (c != bexp::kTrue)
                        stack.emplace_back(c, false);
                break;
            }
            std::vector<Lit> kids;
            bool flip = false;
            for (NodeRef c : arena.children(ref)) {
                if (c == bexp::kTrue) {
                    flip = true; // only XOR carries a TRUE child
                    continue;
                }
                kids.push_back(litOf.at(c));
            }
            if (k == NodeKind::Xor) {
                // Pure negation and small chains need no output var of
                // their own; the chain's last literal stands for them.
                Lit out = defineXorChain(kids);
                if (flip)
                    out = ~out;
                litOf.emplace(ref, out);
            } else {
                const Var v = result.cnf.newVar();
                const Lit out = mkLit(v);
                const unsigned pol = mode == TseitinMode::Full
                    ? 3u
                    : polarity[ref];
                if (pol & 1u) {
                    for (Lit l : kids)
                        result.cnf.addBinary(~out, l);
                }
                if (pol & 2u) {
                    LitVec clause;
                    clause.reserve(kids.size() + 1);
                    clause.push_back(out);
                    for (Lit l : kids)
                        clause.push_back(~l);
                    result.cnf.addClause(std::move(clause));
                }
                result.nodeVar.emplace(ref, v);
                litOf.emplace(ref, out);
            }
            break;
          }
        }
    }
    return litOf.at(root);
}

} // namespace

TseitinResult
encodeAssertTrue(const bexp::Arena &arena, bexp::NodeRef root,
                 TseitinMode mode, unsigned xor_chunk)
{
    Encoder enc{arena, mode, xor_chunk, {}, {}, {}};
    if (arena.isConst(root)) {
        enc.result.rootIsConst = true;
        enc.result.rootConstValue = arena.constValue(root);
        return std::move(enc.result);
    }
    if (mode == TseitinMode::PlaistedGreenbaum)
        enc.computePolarities(root);
    const Lit root_lit = enc.encode(root);
    enc.result.cnf.addUnit(root_lit);
    return std::move(enc.result);
}

} // namespace qb::sat
