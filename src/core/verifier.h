/**
 * @file
 * Safe-uncomputation verification via reduction to SAT.
 *
 * This is the paper's headline algorithm (Section 6): for a circuit C
 * implementing a classical function and a dirty qubit q, C safely
 * uncomputes q iff both
 *
 *   (6.1)  b_q AND NOT q                                  and
 *   (6.2)  OR_{q' != q} ( b_{q'}[0/q] XOR b_{q'}[1/q] )
 *
 * are unsatisfiable (Theorem 6.4).  Formula construction is the linear
 * scan of formula_builder.h; discharge goes through the Tseitin encoder
 * and the in-tree CDCL solver, in the one configuration every path
 * shares (sat/solver.h), where the paper hands them to CVC5 or
 * Bitwuzla.
 */

#ifndef QB_CORE_VERIFIER_H
#define QB_CORE_VERIFIER_H

#include <optional>
#include <string>
#include <vector>

#include "ir/circuit.h"
#include "lang/elaborate.h"
#include "sat/solver.h"

namespace qb::core {

/** Verification outcome for one dirty qubit. */
enum class Verdict {
    Safe,         ///< both formulas UNSAT: safely uncomputed
    Unsafe,       ///< some formula SAT: not safely uncomputed
    Unknown,      ///< solver budget exhausted
    NotClassical, ///< circuit outside the Theorem 6.2 fragment
};

const char *verdictName(Verdict verdict);

/** Which of the two conditions a counterexample violates. */
enum class FailedCondition {
    None,
    ZeroRestoration, ///< formula (6.1) satisfiable
    PlusRestoration, ///< formula (6.2) satisfiable
};

/** Options controlling one verification run. */
struct VerifierOptions
{
    /** Direct-solve configuration; its conflictBudget is the
     *  per-condition budget. */
    sat::SolverConfig solver;
    /** Extract a satisfying input assignment on Unsafe verdicts. */
    bool wantCounterexample = true;

    bool operator==(const VerifierOptions &) const = default;
};

/** Result of verifying one dirty qubit. */
struct QubitResult
{
    ir::QubitId qubit = 0;
    std::string name;
    Verdict verdict = Verdict::Unknown;
    FailedCondition failed = FailedCondition::None;

    /** 0 when the session's lane decided a condition with a SAT
     *  call; -1 when no SAT call was needed or outside engine
     *  sessions. */
    int lane = -1;

    /** Satisfying initial assignment (by qubit id) when Unsafe. */
    std::optional<std::vector<bool>> counterexample;

    /** @name Phase timings (seconds). @{ */
    double buildSeconds = 0.0;  ///< formula construction
    double encodeSeconds = 0.0; ///< Tseitin encoding
    double solveSeconds = 0.0;  ///< SAT solving
    /** @} */

    /** @name Formula/solver statistics. @{ */
    std::size_t formulaNodes = 0; ///< DAG nodes of both formulas
    std::size_t cnfVars = 0;
    std::size_t cnfClauses = 0;
    std::int64_t conflicts = 0;
    /** True when both formulas folded to constants during
     *  construction, no static discharge intervened, and no SAT call
     *  was needed. */
    bool solvedStructurally = false;
    /** @} */
};

/**
 * Conditions the static analyzer (analysis/analyzer.h) proved UNSAT
 * without a SAT call, total and per discharging pass.  Like
 * ProgramResult::solverTotals these counters are PER RUN, so summing
 * reports never counts a discharge twice.
 */
struct AnalysisTotals
{
    std::int64_t discharged = 0; ///< conditions skipped entirely
    std::int64_t support = 0;
    std::int64_t mirror = 0;
    std::int64_t affine = 0;
    std::int64_t permutation = 0;

    void accumulate(const AnalysisTotals &other)
    {
        discharged += other.discharged;
        support += other.support;
        mirror += other.mirror;
        affine += other.affine;
        permutation += other.permutation;
    }
};

/** Result of verifying a whole program. */
struct ProgramResult
{
    std::vector<QubitResult> qubits;
    double totalSeconds = 0.0;

    /**
     * Aggregated solver counters of THIS run, summed over its
     * sessions: every per-condition solver the run collected (the
     * peak fields sum per-solver peaks).  core::verifyAll() builds
     * fresh sessions for every run, so a repeat of the same program
     * reports the same counters.  Filled by core::verifyAll() and the
     * verifyProgram()/verifySource() wrappers over it.
     */
    sat::SolverStats solverTotals;

    /**
     * Static-discharge counters of THIS run, aggregated over its
     * sessions.  All zero when analysis is disabled
     * (analysis::AnalysisOptions::none()).
     */
    AnalysisTotals analysisTotals;

    bool allSafe() const;
    std::string summary() const;
};

/**
 * Verify that @p circuit safely uncomputes dirty qubit @p q
 * (Definition 3.1, decided per Theorem 6.4).
 *
 * The circuit must be classical; otherwise the verdict is
 * NotClassical and the caller should fall back to the semantics
 * engine or the unitary check.
 */
QubitResult verifyQubit(const ir::Circuit &circuit, ir::QubitId q,
                        const VerifierOptions &options = {});

/**
 * Verify that @p circuit uncomputes the *clean* ancilla @p q: started
 * in |0>, it must end in |0> on every input.  This is the classical
 * clean-qubit criterion (strictly weaker than dirty-qubit safety, as
 * Figure 1.4 shows): formula b_q[0/q] must be unsatisfiable.
 */
QubitResult verifyCleanAncilla(const ir::Circuit &circuit,
                               ir::QubitId q,
                               const VerifierOptions &options = {});

/**
 * Verify every `borrow`-introduced qubit of an elaborated program
 * over its borrow...release lifetime (Definition 5.1).  Qubits
 * introduced with `borrow@` are skipped, mirroring the paper's
 * "skip verification" marker.  With @p check_clean_ancillas, qubits
 * introduced by `alloc` are additionally checked against the
 * clean-ancilla criterion.
 */
ProgramResult verifyProgram(const lang::ElaboratedProgram &program,
                            const VerifierOptions &options = {},
                            bool check_clean_ancillas = false);

/** Convenience: parse + elaborate + verifyProgram. */
ProgramResult verifySource(const std::string &source,
                           const VerifierOptions &options = {});

} // namespace qb::core

#endif // QB_CORE_VERIFIER_H
