/**
 * @file
 * Differential fuzzing harness: seeded workload generators,
 * cross-checked verdicts, delta-debugging reproducer shrinking.
 *
 * The harness buys trust in the solver's fast paths (OTF
 * subsumption, bounded variable elimination, relocating GC, the
 * binary watch lists) the cheap way: generate thousands of random
 * inputs, decide each one along INDEPENDENT paths, and treat any
 * disagreement as a bug.  Two case families:
 *
 *  - CNF cases: a random formula (tunable size/density knobs, biased
 *    toward binary-heavy and near-UNSAT regions) is decided by both
 *    SolverConfig presets - the full pipeline active.  The verdicts must agree with each
 *    other, every Sat model must pass sat::validateModel() against
 *    the original clauses, and small instances are additionally
 *    settled by brute-force enumeration.
 *
 *  - qbr cases: a random QBorrow program (circuits::randomQbrSource)
 *    runs through the full parse -> elaborate -> verify pipeline on
 *    both verification lanes, and every
 *    per-qubit verdict is cross-checked against the classical
 *    brute-force oracle on the lifetime slice.
 *
 *  - analysis cases: the same random-program pipeline run on the
 *    default lane and on lane A, each twice: once with the static
 *    dischargers on (the default analysis::AnalysisOptions) and once
 *    fully off (SAT-only).  The
 *    dischargers are UNSAT-only proofs, so every per-qubit verdict,
 *    failed condition and counterexample must be bit-identical; any
 *    difference is an unsound discharge.  The corpus tilts toward
 *    CNOT/X-heavy (linear) programs, where the GF(2)-affine pass
 *    actually fires.
 *
 * Every case derives its own RNG from (seed, kind, index), so the
 * generated corpus is byte-identical no matter how many worker
 * threads run it - the determinism the --jobs tests pin.  A
 * disagreement is delta-debugged down to a minimal reproducer
 * (clause-level ddmin plus literal stripping for CNF, line-level
 * ddmin for qbr) and written to disk next to a one-line description
 * of the mismatch.
 */

#ifndef QB_SUPPORT_FUZZ_H
#define QB_SUPPORT_FUZZ_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuits/qbr_text.h"
#include "sat/cnf.h"
#include "support/rng.h"

namespace qb::fuzz {

/** Shape knobs for generateCnf(). */
struct CnfKnobs
{
    sat::Var minVars = 3;
    sat::Var maxVars = 16;
    /**
     * Clauses ~= ratio * vars.  The default sits just below the
     * random-3-SAT satisfiability threshold (~4.26), so the corpus
     * straddles the SAT/UNSAT boundary - the near-UNSAT region where
     * unit propagation and conflict analysis do real work instead
     * of finding a model in zero conflicts.
     */
    double clauseVarRatio = 4.2;
    /** Probability a clause is binary (pressure on the binary watch
     *  lists and binary reasons). */
    double binaryProb = 0.45;
    /** Probability a clause is unit (root propagation seeds). */
    double unitProb = 0.05;
    /** Longest clause generated (remaining clauses draw their length
     *  uniformly from 3..maxClauseLen). */
    unsigned maxClauseLen = 5;
};

/**
 * Random CNF from @p rng under @p knobs.  Literals are drawn
 * uniformly over the variable range with independent signs;
 * Cnf::addClause canonicalizes (duplicate literals merged,
 * tautologies dropped), so the emitted formula is exactly what the
 * solver sees.  Deterministic in @p rng across platforms.
 */
sat::Cnf generateCnf(Rng &rng, const CnfKnobs &knobs);

/** RandomQbrOptions tilted toward CNOT-dense programs, whose Tseitin
 *  encodings are binary-implication-heavy. */
inline circuits::RandomQbrOptions
binaryHeavyQbrOptions()
{
    circuits::RandomQbrOptions o;
    o.cnotWeight = 2.0;
    return o;
}

/** RandomQbrOptions tilted toward linear (X/CNOT) programs: the
 *  region where the GF(2)-affine discharger actually fires, so the
 *  analysis-on/off differential lane exercises it instead of only
 *  ⊤-poisoned states. */
inline circuits::RandomQbrOptions
linearHeavyQbrOptions()
{
    circuits::RandomQbrOptions o;
    o.xWeight = 1.5;
    o.cnotWeight = 3.0;
    o.ccnotWeight = 0.5;
    return o;
}

/** Everything one runFuzz() campaign needs. */
struct FuzzOptions
{
    std::uint64_t seed = 1;
    std::size_t qbrCases = 250;
    std::size_t cnfCases = 250;
    /** analysis-on vs analysis-off differential cases. */
    std::size_t analysisCases = 250;
    /** Worker threads; results and reproducers are byte-identical
     *  for any value (each case derives its RNG from its index). */
    unsigned jobs = 1;
    CnfKnobs cnf;
    circuits::RandomQbrOptions qbr = binaryHeavyQbrOptions();
    /** Program shape for the analysis differential lane. */
    circuits::RandomQbrOptions analysisQbr = linearHeavyQbrOptions();
    /** CNFs with at most this many variables are also settled by
     *  brute-force enumeration (2^n assignments - keep it small). */
    sat::Var bruteForceMaxVars = 12;
    /** Directory for shrunk reproducer files; "" keeps reproducers
     *  in the report only.  Must already exist. */
    std::string reproducerDir;
    /** Disagreements shrunk and reported before the campaign stops
     *  collecting (shrinking re-runs the cross-check many times). */
    std::size_t maxDisagreements = 4;
    /**
     * Harness self-test: deliberately drop one clause from the
     * differential (simplify-preset) lane of every CNF case, a
     * soundness bug by construction.  A healthy harness MUST report
     * disagreements and shrink them to minimal reproducers; the
     * fuzz tests and the CI smoke job assert exactly that.
     */
    bool injectCnfBug = false;
};

/** Which generator produced a case. */
enum class CaseKind { Qbr, Cnf, Analysis };

const char *caseKindName(CaseKind kind);

/** One cross-check failure, shrunk and (optionally) written out. */
struct Disagreement
{
    CaseKind kind = CaseKind::Cnf;
    std::size_t index = 0;      ///< case index within its kind
    std::uint64_t caseSeed = 0; ///< RNG seed that regenerates it
    std::string detail;         ///< one-line mismatch description
    /** Minimal reproducer: DIMACS text (CNF) or program text (qbr). */
    std::string artifact;
    /** File the artifact was written to; "" without a directory. */
    std::string reproducerPath;
};

/** Campaign summary; every field is deterministic in (options). */
struct FuzzReport
{
    std::size_t qbrCases = 0;
    std::size_t cnfCases = 0;
    std::size_t analysisCases = 0;
    /** Order-independent FNV-1a fold over every generated artifact's
     *  bytes: equal digests mean byte-identical corpora, which is
     *  how the --jobs determinism tests compare runs. */
    std::uint64_t corpusDigest = 0;
    /** @name Verdict tallies (cross-checked, so lane-independent). @{ */
    std::size_t satVerdicts = 0;
    std::size_t unsatVerdicts = 0;
    std::size_t safeQubits = 0;
    std::size_t unsafeQubits = 0;
    /** @} */
    std::vector<Disagreement> disagreements;

    bool ok() const { return disagreements.empty(); }
};

/** Run a full campaign: generate, cross-check, shrink, write. */
FuzzReport runFuzz(const FuzzOptions &options);

/**
 * Delta-debug @p failing down to a minimal formula still satisfying
 * @p fails: clause-level ddmin, then per-clause literal stripping,
 * then dense variable renumbering.  @p fails must be true for
 * @p failing on entry and is treated as a black box (exceptions
 * inside it count as "does not fail").
 */
sat::Cnf shrinkCnf(const sat::Cnf &failing,
                   const std::function<bool(const sat::Cnf &)> &fails);

/**
 * Delta-debug QBorrow source line-by-line: ddmin over the program's
 * lines, keeping any subset that still satisfies @p fails.  Lines
 * whose removal breaks the program (elaboration failure) are kept
 * automatically as long as @p fails treats invalid programs as "does
 * not fail" - runFuzz's predicate does.
 */
std::string
shrinkQbr(const std::string &failing,
          const std::function<bool(const std::string &)> &fails);

} // namespace qb::fuzz

#endif // QB_SUPPORT_FUZZ_H
