#include "analysis/analyzer.h"

#include "support/logging.h"

namespace qb::analysis {

const char *
passName(Pass pass)
{
    switch (pass) {
      case Pass::None:        return "none";
      case Pass::Support:     return "support";
      case Pass::Mirror:      return "mirror";
      case Pass::Affine:      return "affine";
      case Pass::Permutation: return "permutation";
    }
    return "?";
}

Analyzer::Analyzer(const ir::Circuit &circuit, AnalysisOptions options)
    : circuit_(circuit), options_(options),
      factsCache_(circuit.numQubits())
{
}

const QubitFacts &
Analyzer::qubitFacts(ir::QubitId q)
{
    qbAssert(q < circuit_.numQubits(),
             "Analyzer::qubitFacts: qubit out of range");
    if (factsCache_[q])
        return *factsCache_[q];

    QubitFacts facts;
    if (circuit_.isClassical() && options_.anyPass()) {
        if (options_.support) {
            if (supportDischargesZero(circuit_, q))
                facts.zeroDischargedBy = Pass::Support;
            if (!supports_)
                supports_ = supportsOf(circuit_);
            if (!supports_->poisoned()) {
                bool independent = true;
                for (ir::QubitId other = 0;
                     other < circuit_.numQubits(); ++other) {
                    if (other != q &&
                        supports_->mayDependOn(other, q)) {
                        independent = false;
                        break;
                    }
                }
                if (independent)
                    facts.plusDischargedBy = Pass::Support;
            }
        }
        if (options_.mirror &&
            (facts.zeroDischargedBy == Pass::None ||
             facts.plusDischargedBy == Pass::None)) {
            const MirrorFacts mirror = mirrorFacts(circuit_, q);
            if (mirror.zeroUnsat &&
                facts.zeroDischargedBy == Pass::None)
                facts.zeroDischargedBy = Pass::Mirror;
            if (mirror.plusUnsat &&
                facts.plusDischargedBy == Pass::None)
                facts.plusDischargedBy = Pass::Mirror;
        }
        if (options_.affine &&
            (facts.zeroDischargedBy == Pass::None ||
             facts.plusDischargedBy == Pass::None)) {
            const AffineFacts affine = affineFacts(q);
            if (affine.zeroUnsat &&
                facts.zeroDischargedBy == Pass::None)
                facts.zeroDischargedBy = Pass::Affine;
            if (affine.plusUnsat &&
                facts.plusDischargedBy == Pass::None)
                facts.plusDischargedBy = Pass::Affine;
        }
        if (options_.permutation &&
            facts.zeroDischargedBy == Pass::None) {
            if (!writers_)
                writers_.emplace(circuit_.gates(), circuit_.numQubits());
            if (permutationCheck(circuit_.gates(), *writers_, q,
                                 options_.permutationWindow) ==
                PermutationVerdict::Restored)
                facts.zeroDischargedBy = Pass::Permutation;
        }
    }
    factsCache_[q] = facts;
    return *factsCache_[q];
}

const AffineState *
Analyzer::affineFinal()
{
    if (!affineTried_) {
        affineTried_ = true;
        if (options_.affine && circuit_.isClassical())
            affineFinal_ = runForward<AffineDomain>(
                circuit_, AffineDomain::initial(circuit_));
    }
    return affineFinal_ ? &*affineFinal_ : nullptr;
}

AffineFacts
Analyzer::affineFacts(ir::QubitId q)
{
    qbAssert(q < circuit_.numQubits(),
             "Analyzer::affineFacts: qubit out of range");
    AffineFacts facts;
    const AffineState *final = affineFinal();
    if (!final)
        return facts;
    // (6.1): b_q AND NOT q is UNSAT when b_q = q as functions, or
    // when b_q is identically 0 (then the conjunction is false).
    facts.zeroUnsat = final->isIdentity(q) ||
                      final->constantOf(q) == std::optional(false);
    // (6.2): the cofactor disjunction is UNSAT when no OTHER wire's
    // final value may depend on initial q.  Exact rows make this
    // strictly stronger than the support pass: cancelled
    // contributions (w ^= q; w ^= q) do not count as dependence.
    facts.plusUnsat = true;
    for (ir::QubitId other = 0; other < circuit_.numQubits(); ++other) {
        if (other != q && final->mayDependOn(other, q)) {
            facts.plusUnsat = false;
            break;
        }
    }
    return facts;
}

} // namespace qb::analysis
