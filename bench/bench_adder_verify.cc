/**
 * @file
 * Experiment E2 - Figure 6.3 / Table 10.2 of the paper: verification
 * time of the adder program (adder.qbr) for n in {50, 75, ..., 200},
 * with the in-tree solver standing in for CVC5 and Bitwuzla.
 *
 * Each run performs the complete pipeline the paper times: generate
 * the program text, parse, elaborate, build the (6.1)/(6.2) formulas
 * for every one of the n-1 dirty qubits, and discharge them.  The
 * solveSeconds counter isolates the solver portion, which is what the
 * paper's tables report.
 *
 * Two execution modes are compared:
 *   - OneShot: a fresh session (arena + Tseitin + solver) per dirty
 *     qubit, reproducing the seed verifyQubit loop;
 *   - Engine: one VerificationEngine session shared by all dirty
 *     qubits (they are borrowed together, so their lifetimes
 *     coincide): one arena and one formula build, with every
 *     condition decided in its own solver as an unordered pool task.
 *
 * Paper reference (MacBook Air M3): CVC5 4/24/71/171/365/751/1069 s,
 * Bitwuzla 3/12/29/98/158/248/313 s for n = 50..200.  Absolute times
 * are not comparable (different solver and machine); the shape -
 * polynomial growth in n - is.
 */

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include "circuits/qbr_text.h"
#include "core/engine.h"
#include "core/verifier.h"
#include "lang/elaborate.h"

namespace {

/** Peak resident set of this process so far, in MiB (ru_maxrss is
 *  KiB on Linux). */
double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Seed behavior: a fresh one-shot session per dirty qubit. */
qb::core::ProgramResult
verifyOneShot(const qb::lang::ElaboratedProgram &program,
              const qb::core::VerifierOptions &options)
{
    qb::core::ProgramResult result;
    for (qb::ir::QubitId q : program.qubitsWithRole(
             qb::lang::QubitRole::BorrowVerify)) {
        const qb::lang::QubitInfo &info = program.qubits[q];
        const qb::ir::Circuit scope =
            program.circuit.slice(info.scopeBegin, info.scopeEnd);
        result.qubits.push_back(
            qb::core::verifyQubit(scope, q, options));
    }
    return result;
}

void
reportCounters(benchmark::State &state,
               const qb::core::ProgramResult &result, std::uint32_t n)
{
    double solve = 0, build = 0;
    std::size_t nodes = 0;
    std::int64_t conflicts = 0;
    for (const auto &r : result.qubits) {
        solve += r.solveSeconds;
        build += r.buildSeconds;
        nodes += r.formulaNodes;
        conflicts += r.conflicts;
    }
    state.counters["solve_s"] = solve;
    state.counters["build_s"] = build;
    state.counters["formula_nodes"] = static_cast<double>(nodes);
    state.counters["conflicts"] = static_cast<double>(conflicts);
    state.counters["dirty_qubits"] = n - 1;
    // Memory line: process peak RSS plus the summed learnt-DB peaks
    // of the session's solvers - the numbers the clause-arena GC and
    // the learnt-clause reduction are meant to hold down.
    state.counters["peak_rss_mb"] = peakRssMb();
    state.counters["learnt_db_peak"] = static_cast<double>(
        result.solverTotals.peakLearnts);
    state.counters["arena_peak_kw"] =
        static_cast<double>(result.solverTotals.arenaPeakWords) /
        1024.0;
    state.counters["gc_runs"] =
        static_cast<double>(result.solverTotals.gcRuns);
    state.counters["analysis_discharged"] =
        static_cast<double>(result.analysisTotals.discharged);
    state.counters["analysis_discharged_affine"] =
        static_cast<double>(result.analysisTotals.affine);
}

void
AdderVerifyOneShot(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    qb::core::VerifierOptions options;
    options.wantCounterexample = false;
    qb::core::ProgramResult result;
    for (auto _ : state) {
        const auto program = qb::lang::elaborateSource(
            qb::circuits::adderQbrSource(n));
        result = verifyOneShot(program, options);
        if (!result.allSafe())
            state.SkipWithError("adder verification failed");
    }
    reportCounters(state, result, n);
}

void
runAdderEngine(benchmark::State &state,
               const qb::core::EngineOptions &options)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    qb::core::EngineOptions opts = options;
    opts.lane.wantCounterexample = false;
    qb::core::ProgramResult result;
    for (auto _ : state) {
        const auto program = qb::lang::elaborateSource(
            qb::circuits::adderQbrSource(n));
        result = qb::core::verifyAll(program, opts);
        if (!result.allSafe())
            state.SkipWithError("adder verification failed");
    }
    reportCounters(state, result, n);
}

void
AdderVerifyEngine(benchmark::State &state)
{
    runAdderEngine(state, qb::core::EngineOptions{});
}

void
AdderVerifyEngineNoAnalysis(benchmark::State &state)
{
    // SAT-only twin.  The adder's conditions are genuinely
    // non-trivial (no mirror, wide cones), so analysis_discharged is
    // 0 either way and the pair measures the pure overhead of
    // consulting the dischargers before SAT.
    qb::core::EngineOptions options;
    options.analysis = qb::analysis::AnalysisOptions::none();
    runAdderEngine(state, options);
}

} // namespace

BENCHMARK(AdderVerifyOneShot)
    ->DenseRange(50, 200, 25)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(AdderVerifyEngine)
    ->DenseRange(50, 200, 25)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(AdderVerifyEngineNoAnalysis)
    ->DenseRange(50, 200, 25)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
