/**
 * @file
 * Facade over the static dischargers (support.h, mirror.h,
 * dataflow.h's affine domain, permutation.h) as consumed by
 * core::VerificationEngine.
 *
 * The engine asks, per qubit, whether the zero-restoration condition
 * (6.1) and/or the plus-restoration condition (6.2) are provably
 * UNSAT from circuit structure alone.  Every answer here is an
 * UNSAT-ONLY discharge: the analyzer never claims a condition
 * satisfiable, so enabling it can skip encode+SAT work but can never
 * change a verdict or a counterexample relative to a SAT-only run.
 *
 * Pass order is support, mirror, affine, permutation - cheapest
 * first - and the first pass to discharge a condition is credited in
 * the per-pass counters.  The affine pass is additionally exposed
 * through affineFacts(): unlike the others it proves linear-circuit
 * restoration with NO window bound, so the engine consults it BEFORE
 * building a qubit's condition formulas - for purely linear cones the
 * formula arena's own GF(2) canonicalization would fold both
 * conditions to constants anyway, and the only way the proof saves
 * work is to skip that build (in particular the per-wire (6.2)
 * cofactor sweep) entirely.
 */

#ifndef QB_ANALYSIS_ANALYZER_H
#define QB_ANALYSIS_ANALYZER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/dataflow.h"
#include "analysis/mirror.h"
#include "analysis/permutation.h"
#include "analysis/support.h"

namespace qb::analysis {

/** Which dischargers run, and the permutation pass's window bound. */
struct AnalysisOptions
{
    bool support = true;
    bool mirror = true;
    bool affine = true;
    bool permutation = true;
    unsigned permutationWindow = kDefaultPermutationWindow;

    bool anyPass() const
    {
        return support || mirror || affine || permutation;
    }

    /** Everything off: SAT-only verification. */
    static AnalysisOptions none()
    {
        AnalysisOptions opts;
        opts.support = opts.mirror = opts.affine = opts.permutation =
            false;
        return opts;
    }
};

/** Discharging pass, for attribution in stats and reports. */
enum class Pass : std::uint8_t {
    None,
    Support,
    Mirror,
    Affine,
    Permutation,
};

/** Name of @p pass ("support", "mirror", "affine", "permutation",
 *  "none"). */
const char *passName(Pass pass);

/** Static verdicts for one qubit's two conditions. */
struct QubitFacts
{
    Pass zeroDischargedBy = Pass::None; ///< (6.1) proven UNSAT by
    Pass plusDischargedBy = Pass::None; ///< (6.2) proven UNSAT by
};

/** What the GF(2)-affine pass alone proves for one qubit (the
 *  engine's pre-build consult; see the file comment). */
struct AffineFacts
{
    /** Final value of q is provably q itself (or constant 0): (6.1)
     *  `b_q AND NOT q` is UNSAT. */
    bool zeroUnsat = false;
    /** Every OTHER wire's final value is provably independent of
     *  initial q: the (6.2) cofactor disjunction is UNSAT. */
    bool plusUnsat = false;
};

/**
 * Per-circuit analyzer: caches the work shared between qubits (the
 * forward support sets, the affine final and the permutation pass's
 * writer index) and answers qubitFacts() queries.  Analysis is lazy -
 * nothing is computed until the first query - so sessions that never
 * consult the analyzer pay nothing.
 */
class Analyzer
{
  public:
    Analyzer(const ir::Circuit &circuit, AnalysisOptions options);

    /** Static discharges for @p q's conditions (cached per qubit). */
    const QubitFacts &qubitFacts(ir::QubitId q);

    /**
     * GF(2)-affine discharges alone for @p q, window-free (cached;
     * the whole-circuit affine sweep is shared between qubits).  All
     * false when the affine pass is off or the circuit is not
     * classical.
     */
    AffineFacts affineFacts(ir::QubitId q);

    const AnalysisOptions &options() const { return options_; }

  private:
    /** The affine fixpoint at the end of the circuit (computed on
     *  first use, nullopt until then and when unavailable). */
    const AffineState *affineFinal();

    const ir::Circuit &circuit_;
    AnalysisOptions options_;
    std::optional<SupportSets> supports_;
    /** Shared by every permutation check (built on first use). */
    std::optional<WriterIndex> writers_;
    bool affineTried_ = false;
    std::optional<AffineState> affineFinal_;
    std::vector<std::optional<QubitFacts>> factsCache_;
};

} // namespace qb::analysis

#endif // QB_ANALYSIS_ANALYZER_H
