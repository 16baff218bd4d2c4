/**
 * @file
 * Experiment E9 - SAT substrate ablation.  The solver's one remaining
 * switch is bounded variable elimination (SolverConfig::preprocess);
 * this bench measures it on and off on three workload families:
 *
 *  - pigeonhole formulas (hard structured UNSAT),
 *  - random 3-SAT at the satisfiability threshold,
 *  - real verifier formulas (condition (6.2) of an adder instance
 *    with an input qubit in the dirty role, a satisfiable case),
 *  - and the default verification path's shape: a fresh solver
 *    deciding a safe adder's (6.2) condition, which is UNSAT.
 */

#include <benchmark/benchmark.h>

#include "circuits/adders.h"
#include "core/formula_builder.h"
#include "sat/solver.h"
#include "sat/tseitin.h"
#include "support/rng.h"

namespace {

using qb::sat::Cnf;
using qb::sat::LitVec;
using qb::sat::mkLit;
using qb::sat::SolverConfig;
using qb::sat::SolveResult;

Cnf
pigeonhole(int holes)
{
    Cnf cnf;
    const int pigeons = holes + 1;
    auto var = [&](int p, int h) { return p * holes + h; };
    for (int p = 0; p < pigeons; ++p) {
        LitVec clause;
        for (int h = 0; h < holes; ++h)
            clause.push_back(mkLit(var(p, h)));
        cnf.addClause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                cnf.addClause(
                    {~mkLit(var(p1, h)), ~mkLit(var(p2, h))});
    return cnf;
}

Cnf
random3Sat(std::uint64_t seed, int num_vars, double ratio)
{
    qb::Rng rng(seed);
    Cnf cnf;
    cnf.ensureVars(num_vars);
    const auto clauses =
        static_cast<std::size_t>(num_vars * ratio);
    for (std::size_t i = 0; i < clauses; ++i) {
        LitVec clause;
        for (int j = 0; j < 3; ++j)
            clause.push_back(mkLit(
                static_cast<qb::sat::Var>(rng.nextBelow(num_vars)),
                rng.nextBool()));
        cnf.addClause(clause);
    }
    return cnf;
}

/** Condition (6.2) CNF for the adder with qubit @p dirty borrowed. */
Cnf
adderPlusCnf(std::uint32_t n, std::uint32_t dirty)
{
    auto circuit = qb::circuits::hanerCarryCircuit(n);
    qb::bexp::Arena arena;
    qb::core::FormulaBuilder builder(arena, circuit.numQubits());
    builder.applyCircuit(circuit);
    std::vector<qb::bexp::NodeRef> disjuncts;
    for (std::uint32_t q = 0; q < circuit.numQubits(); ++q) {
        if (q == dirty)
            continue;
        const auto f = builder.formula(q);
        disjuncts.push_back(arena.mkXor(
            {arena.substitute(f, dirty, qb::bexp::kFalse),
             arena.substitute(f, dirty, qb::bexp::kTrue)}));
    }
    const auto root = arena.mkOr(std::move(disjuncts));
    return qb::sat::encodeAssertTrue(arena, root).cnf;
}

/**
 * The input qubit q[1] in the dirty role: the carry output genuinely
 * depends on q[1], so the instance is satisfiable and the solver must
 * find a model.
 */
Cnf
brokenAdderCnf(std::uint32_t n)
{
    return adderPlusCnf(n, 0);
}

/** The dirty ancilla a[1] in its own role: safe, so UNSAT. */
Cnf
safeAdderCnf(std::uint32_t n)
{
    return adderPlusCnf(n, n);
}

/** Variant 0 is the verifier's configuration, variant 1 the same
 *  solver without bounded variable elimination. */
SolverConfig
configFor(int variant)
{
    return SolverConfig{.preprocess = variant == 0};
}

const char *kVariantNames[] = {"bve", "no_bve"};

void
SatPigeonhole(benchmark::State &state)
{
    const Cnf cnf = pigeonhole(static_cast<int>(state.range(0)));
    const SolverConfig config =
        configFor(static_cast<int>(state.range(1)));
    std::int64_t conflicts = 0;
    for (auto _ : state) {
        qb::sat::SolverStats stats;
        if (qb::sat::solveCnf(cnf, config, &stats) !=
            SolveResult::Unsat)
            state.SkipWithError("pigeonhole must be UNSAT");
        conflicts = stats.conflicts;
    }
    state.counters["conflicts"] = static_cast<double>(conflicts);
    state.SetLabel(kVariantNames[state.range(1)]);
}

void
SatRandom3Sat(benchmark::State &state)
{
    const SolverConfig config =
        configFor(static_cast<int>(state.range(1)));
    std::int64_t conflicts = 0;
    int sat_count = 0;
    for (auto _ : state) {
        for (std::uint64_t seed = 0; seed < 10; ++seed) {
            qb::sat::SolverStats stats;
            const auto cnf = random3Sat(
                seed, static_cast<int>(state.range(0)), 4.26);
            sat_count +=
                qb::sat::solveCnf(cnf, config, &stats) ==
                SolveResult::Sat;
            conflicts += stats.conflicts;
        }
    }
    // Sums over every iteration, reported per iteration (one pass
    // over the ten seeded instances).
    state.counters["conflicts"] = benchmark::Counter(
        static_cast<double>(conflicts),
        benchmark::Counter::kAvgIterations);
    state.counters["sat_instances"] = benchmark::Counter(
        sat_count, benchmark::Counter::kAvgIterations);
    state.SetLabel(kVariantNames[state.range(1)]);
}

void
SatVerifierFormula(benchmark::State &state)
{
    const Cnf cnf =
        brokenAdderCnf(static_cast<std::uint32_t>(state.range(0)));
    const SolverConfig config =
        configFor(static_cast<int>(state.range(1)));
    for (auto _ : state) {
        if (qb::sat::solveCnf(cnf, config) != SolveResult::Sat)
            state.SkipWithError(
                "broken adder condition (6.2) must be SAT");
    }
    state.counters["cnf_vars"] = cnf.numVars();
    state.counters["cnf_clauses"] =
        static_cast<double>(cnf.numClauses());
    state.SetLabel(kVariantNames[state.range(1)]);
}

/**
 * What the default verification path does per condition when the
 * sweep leaves it: a fresh solver (bounded variable elimination, then
 * search) proving a safe dirty qubit's (6.2) UNSAT.
 */
void
SatPreprocessSafeAdder(benchmark::State &state)
{
    const Cnf cnf =
        safeAdderCnf(static_cast<std::uint32_t>(state.range(0)));
    qb::sat::SolverStats stats;
    for (auto _ : state) {
        if (qb::sat::solveCnf(cnf, SolverConfig{}, &stats) !=
            SolveResult::Unsat)
            state.SkipWithError("safe adder condition (6.2) must be UNSAT");
    }
    state.counters["eliminated_vars"] =
        static_cast<double>(stats.eliminatedVars);
    state.counters["conflicts"] = static_cast<double>(stats.conflicts);
}

} // namespace

BENCHMARK(SatPigeonhole)
    ->ArgsProduct({{6, 7}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(SatRandom3Sat)
    ->ArgsProduct({{40, 60}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(SatVerifierFormula)
    ->ArgsProduct({{40, 80}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(SatPreprocessSafeAdder)
    ->Arg(40)
    ->Arg(80)
    ->Unit(benchmark::kMillisecond);
