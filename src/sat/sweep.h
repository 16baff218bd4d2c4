/**
 * @file
 * SAT sweeping of one verification condition (FRAIG style).
 *
 * Hash-consing merges structurally equal nodes only.  The (6.2) miter
 * of a safe qubit is the OR over wires of cof0 XOR cof1, and on
 * circuits like the adder each pair of cofactors is equal node by
 * node without being equal as DAGs, so the direct solve has to
 * rediscover every one of those equalities in one search.  sweep()
 * proves them piece by piece instead (Kuehlmann et al., TCAD 2002;
 * Mishchenko, Chatterjee, Jiang and Brayton, "FRAIGs", 2005):
 *
 *   1. simulate the root's cone under 256 patterns seeded from the
 *      variable ids; a pattern that makes the root true ends the
 *      sweep at once (the condition is satisfiable);
 *   2. walk the cone bottom-up, encoding each node into ONE
 *      incremental solver over the literals of its already-merged
 *      children (structurally hashed, so nodes over equal inputs
 *      share a literal), and try to prove the node equal to the
 *      representative of its simulation class or to a constant with
 *      conflict-capped assumption calls.  A proof merges the node; a
 *      model becomes a new simulation pattern that splits the class;
 *      an undecided call leaves the node unmerged;
 *   3. answer Unsat iff the root's literal became constant false.
 *
 * Only proved merges are applied, so an Unsat answer is sound.  The
 * sweeper never answers Sat: a satisfiable condition's model, and so
 * its counterexample, comes from the caller's direct solve.
 */

#ifndef QB_SAT_SWEEP_H
#define QB_SAT_SWEEP_H

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "boolexpr/arena.h"
#include "sat/solver.h"

namespace qb::sat {

/** What sweep() established about one condition. */
struct SweepResult
{
    /** Unsat when the root folded to constant false; Unknown
     *  otherwise (satisfiable, unproved, out of budget or stopped). */
    SolveResult result = SolveResult::Unknown;
    /** The sweeper solver's counters, with sweepMerges set and
     *  sweptConditions 1 on Unsat.  stats.conflicts is what the sweep
     *  charged to the condition's conflict budget. */
    SolverStats stats;
    std::size_t vars = 0;    ///< variables of the sweeper's solver
    std::size_t clauses = 0; ///< clauses added to it
};

/**
 * Sweep the condition "@p root is true".
 *
 * Reads @p arena only, so a worker may sweep while the arena's writer
 * interns newer nodes (the arena's single-writer contract).  The
 * sweeper's solver runs without bounded variable elimination.  At
 * most @p conflict_allowance conflicts are spent
 * (-1 = unlimited); candidate calls are further capped per call and
 * per cone size (constants in sweep.cc).  When @p stop is set the
 * sweep returns Unknown.  Deterministic: the same arguments give the
 * same result and counters.
 */
SweepResult sweep(const bexp::Arena &arena, bexp::NodeRef root,
                  std::int64_t conflict_allowance,
                  const std::atomic<bool> *stop);

} // namespace qb::sat

#endif // QB_SAT_SWEEP_H
