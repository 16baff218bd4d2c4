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
    TseitinResult result;
    std::unordered_map<NodeRef, Lit> litOf;

    Lit encode(NodeRef root);
    Lit defineXorChain(const std::vector<Lit> &inputs);
    void emitXorDefinition(Lit out, Lit a, Lit b);
};

/**
 * Direct clausal expansion of out = a XOR b: forbid every odd-parity
 * assignment of (out, a, b).
 */
void
Encoder::emitXorDefinition(Lit out, Lit a, Lit b)
{
    const Lit all[3] = {out, a, b};
    for (std::uint32_t bits = 0; bits < 8; ++bits) {
        if (__builtin_popcount(bits) % 2 == 0)
            continue; // even parity satisfies out ^ a ^ b = 0
        LitVec clause;
        clause.reserve(3);
        for (std::size_t i = 0; i < 3; ++i) {
            // Literal false under the forbidden assignment.
            clause.push_back((bits >> i) & 1u ? ~all[i] : all[i]);
        }
        result.cnf.addClause(std::move(clause));
    }
}

/** Fold @p inputs left to right into a chain of two-input XOR
 *  definitions; the last output stands for the whole XOR. */
Lit
Encoder::defineXorChain(const std::vector<Lit> &inputs)
{
    qbAssert(!inputs.empty(), "empty XOR chain");
    Lit acc = inputs[0];
    for (std::size_t i = 1; i < inputs.size(); ++i) {
        const Lit out = mkLit(result.cnf.newVar());
        emitXorDefinition(out, acc, inputs[i]);
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
                for (Lit l : kids)
                    result.cnf.addBinary(~out, l);
                LitVec clause;
                clause.reserve(kids.size() + 1);
                clause.push_back(out);
                for (Lit l : kids)
                    clause.push_back(~l);
                result.cnf.addClause(std::move(clause));
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
encodeAssertTrue(const bexp::Arena &arena, bexp::NodeRef root)
{
    Encoder enc{arena, {}, {}};
    if (arena.isConst(root)) {
        enc.result.rootIsConst = true;
        enc.result.rootConstValue = arena.constValue(root);
        return std::move(enc.result);
    }
    const Lit root_lit = enc.encode(root);
    enc.result.cnf.addUnit(root_lit);
    return std::move(enc.result);
}

} // namespace qb::sat
