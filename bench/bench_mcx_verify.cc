/**
 * @file
 * Experiment E3 - Figure 6.4 / Table 10.3 of the paper: verification
 * time of the MCX program (mcx.qbr) for control counts
 * n = 2m-1 in {499, 999, ..., 3499}.
 *
 * The benchmark verifies the single dirty ancilla of the
 * (2m-1)-controlled NOT over its borrow...release lifetime, running
 * the full text -> parse -> elaborate -> verify pipeline.  The OneShot
 * variants reproduce the seed per-qubit sessions; the Engine variants
 * go through a VerificationEngine, which shares one arena and one
 * formula build between conditions (6.1) and (6.2) and decides each
 * in its own solver (total time is dominated by the shared
 * frontend+build phases).
 *
 * Paper reference (MacBook Air M3): CVC5 0/1/4/7/11/17/27 s,
 * Bitwuzla 3/16/35/61/115/163/239 s for n = 499..3499.  The paper's
 * two solvers trade places between this family and the adder; the
 * in-tree solver runs one configuration on both.
 *
 * Static condition dischargers (PR 7): every variant now reports an
 * analysis_discharged counter, a NoAnalysis twin pins the SAT-only
 * baseline, and the McxMirrorVerifyEngine family runs the
 * mirrored-construction program (circuits::mirrorMcxQbrSource),
 * whose single dirty qubit the permutation discharger settles over a
 * 3-wire cone without building a formula or touching a solver at any
 * m.  The plain mcx family keeps analysis_discharged = 0: its ancilla
 * conditions constant-fold in the formula arena before the analyzer
 * is ever consulted, which is the intended division of labor.
 *
 * GF(2)-affine dataflow pass (PR 10): the WideLinearMirror family
 * runs circuits::wideLinearMirrorQbrSource, whose dirty-qubit cone
 * spans ALL n+1 wires - past any permutation window - so only the
 * window-free affine pass discharges it (analysis_discharged_affine
 * >= 1, asserted by CI bench-smoke; its NoAnalysis twin must still
 * verify, pinning bit-identical verdicts).  Because the affine
 * consult happens BEFORE formula construction, the analysis-on
 * variant also skips the per-wire (6.2) cofactor build that grows
 * quadratically with n.
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

void
reportCounters(benchmark::State &state,
               const qb::core::ProgramResult &result, std::uint32_t n)
{
    state.counters["solve_s"] = result.qubits[0].solveSeconds;
    state.counters["build_s"] = result.qubits[0].buildSeconds;
    state.counters["formula_nodes"] =
        static_cast<double>(result.qubits[0].formulaNodes);
    state.counters["controls"] = n;
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

/** Which benchmark program a family runs. */
enum class McxProgram { Plain, Mirror, BinaryHeavy, WideLinear };

void
runMcxVerify(benchmark::State &state,
             const qb::core::EngineOptions &options, bool one_shot,
             McxProgram which = McxProgram::Plain)
{
    // state.range(0) is the paper's control count n = 2m - 1 for the
    // mcx families, or the input width for WideLinear.
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const std::uint32_t m = (n + 1) / 2;
    qb::core::EngineOptions opts = options;
    opts.lane.wantCounterexample = false;
    qb::core::ProgramResult result;
    for (auto _ : state) {
        const auto program = qb::lang::elaborateSource(
            which == McxProgram::Mirror
                ? qb::circuits::mirrorMcxQbrSource(m)
                : which == McxProgram::BinaryHeavy
                      ? qb::circuits::binaryHeavyMcxQbrSource(m)
                      : which == McxProgram::WideLinear
                            ? qb::circuits::wideLinearMirrorQbrSource(
                                  n)
                            : qb::circuits::mcxQbrSource(m));
        if (one_shot) {
            // Seed behavior: fresh one-shot session per dirty qubit.
            result.qubits.clear();
            for (qb::ir::QubitId q : program.qubitsWithRole(
                     qb::lang::QubitRole::BorrowVerify)) {
                const qb::lang::QubitInfo &info = program.qubits[q];
                result.qubits.push_back(qb::core::verifyQubit(
                    program.circuit.slice(info.scopeBegin,
                                          info.scopeEnd),
                    q, opts.lane));
            }
        } else {
            result = qb::core::verifyAll(program, opts);
        }
        if (result.qubits.size() != 1 || !result.allSafe())
            state.SkipWithError("mcx verification failed");
    }
    reportCounters(state, result, n);
}

void
McxVerifyOneShot(benchmark::State &state)
{
    runMcxVerify(state, qb::core::EngineOptions{}, true);
}

void
McxVerifyEngine(benchmark::State &state)
{
    runMcxVerify(state, qb::core::EngineOptions{}, false);
}

void
McxVerifyEngineNoAnalysis(benchmark::State &state)
{
    // SAT-only twin: the on/off pair bounds what the dischargers buy
    // (or cost) on this family.
    qb::core::EngineOptions options;
    options.analysis = qb::analysis::AnalysisOptions::none();
    runMcxVerify(state, options, false);
}

void
McxVerifyEngineBinaryHeavy(benchmark::State &state)
{
    // The dressed mcx program (circuits::binaryHeavyMcxQbrSource) on
    // the default configuration: equivalence cycles and redundant binary
    // implications keep the solver's binary watch lists busy, and the
    // CI crash gate runs it.
    runMcxVerify(state, qb::core::EngineOptions{}, false,
                 McxProgram::BinaryHeavy);
}

void
McxMirrorVerifyEngine(benchmark::State &state)
{
    // Mirrored construction: the permutation discharger settles the
    // dirty qubit statically - analysis_discharged must be >= 1 here
    // (CI bench-smoke asserts it), and solve_s stays exactly zero.
    runMcxVerify(state, qb::core::EngineOptions{}, false,
                 McxProgram::Mirror);
}

void
McxMirrorVerifyEngineNoAnalysis(benchmark::State &state)
{
    // The same program with the analyzer off: what the SAT path pays
    // for a condition the static pass gets for free.
    qb::core::EngineOptions options;
    options.analysis = qb::analysis::AnalysisOptions::none();
    runMcxVerify(state, options, false, McxProgram::Mirror);
}

void
WideLinearMirrorVerifyEngine(benchmark::State &state)
{
    // Cone wider than any permutation window: only the window-free
    // affine pass discharges, before the conditions are even built -
    // analysis_discharged_affine must be >= 1 here (CI asserts it)
    // and solve_s stays exactly zero.
    runMcxVerify(state, qb::core::EngineOptions{}, false,
                 McxProgram::WideLinear);
}

void
WideLinearMirrorVerifyEngineNoAnalysis(benchmark::State &state)
{
    // The SAT-only twin: pays the full per-wire (6.2) cofactor build
    // before the arena folds both conditions to constants.  Verdicts
    // are bit-identical to the analysis-on family.
    qb::core::EngineOptions options;
    options.analysis = qb::analysis::AnalysisOptions::none();
    runMcxVerify(state, options, false, McxProgram::WideLinear);
}

} // namespace

BENCHMARK(McxVerifyOneShot)
    ->DenseRange(499, 3499, 500)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(McxVerifyEngine)
    ->DenseRange(499, 3499, 500)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(McxVerifyEngineNoAnalysis)
    ->DenseRange(499, 3499, 500)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(McxVerifyEngineBinaryHeavy)
    ->DenseRange(499, 3499, 500)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(McxMirrorVerifyEngine)
    ->DenseRange(499, 3499, 500)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(McxMirrorVerifyEngineNoAnalysis)
    ->DenseRange(499, 3499, 500)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(WideLinearMirrorVerifyEngine)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(WideLinearMirrorVerifyEngineNoAnalysis)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
