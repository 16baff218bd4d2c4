/**
 * @file
 * mcx-cli and adder-sat: the human-output `qborrow FILE` path, one
 * program after another, in-process.
 *
 * Untraced passes call exactly what runLocal in tools/qborrow_main.cc
 * calls: lintSource -> elaborateSource -> verifyAll -> toJson.  Traced
 * passes split those calls into the layers' public pieces (lintAst +
 * lintElaborated, and the session API in place of verifyAll) so each
 * piece gets its own span; their verdicts must equal the untraced ones.
 */

#include <algorithm>
#include <map>
#include <memory>

#include "analysis/lint.h"
#include "bench.h"
#include "core/report.h"
#include "inputs.h"
#include "lang/parser.h"

namespace qbbench {

namespace {

using qb::core::ProgramResult;
using qb::core::VerificationEngine;

/** Layer counters of one traced program, summed over the pass. */
using Counters = std::map<std::string, double>;

qb::analysis::LintOptions
cliLintOptions()
{
    qb::analysis::LintOptions options;
    options.permutationWindow =
        qb::analysis::AnalysisOptions{}.permutationWindow;
    return options;
}

/** The untraced CLI path; returns the report text's length so the
 *  rendering cannot be optimized away. */
ProgramResult
runCliPath(const Input &input, std::size_t &sink)
{
    const auto lint = qb::analysis::lintSource(input.source,
                                               cliLintOptions());
    sink += lint.diagnostics.size();
    const auto program = qb::lang::elaborateSource(input.source);
    ProgramResult result =
        qb::core::verifyAll(program, cliEngineOptions());
    sink += qb::core::toJson(result, input.name).size();
    return result;
}

/**
 * The same work through the layers' public pieces, one span per call.
 * The session part mirrors verifyAll: one pool, one engine per
 * distinct borrow scope, every qubit prepared before the first is
 * finished.
 */
ProgramResult
runTracedPath(const Input &input, std::int64_t id, Trace &trace,
              Counters &counters, std::size_t &sink)
{
    Trace::Scope root(trace, "program", -1, id);
    const int parent = root.index();
    const auto options = cliEngineOptions();

    qb::analysis::LintResult lint;
    qb::lang::Program ast;
    {
        Trace::Scope s(trace, "analysis.lint_ast", parent, id);
        ast = qb::lang::parse(input.source);
        qb::analysis::lintAst(ast, lint.diagnostics);
    }
    {
        qb::lang::ElaboratedProgram linted;
        {
            Trace::Scope s(trace, "lang.elaborate", parent, id);
            linted = qb::lang::elaborate(ast);
        }
        Trace::Scope s(trace, "analysis.lint_ir", parent, id);
        qb::analysis::lintElaborated(linted, cliLintOptions(), lint);
    }
    counters["analysis.lint_diagnostics"] += double(lint.diagnostics.size());

    qb::lang::ElaboratedProgram program;
    {
        Trace::Scope s(trace, "lang.elaborate", parent, id);
        program = qb::lang::elaborateSource(input.source);
    }
    counters["lang.gates"] += double(program.circuit.size());

    ProgramResult result;
    {
        Trace::Scope session(trace, "core.verify", parent, id);
        const int vparent = session.index();
        const double begin = now();
        std::shared_ptr<qb::core::Scheduler> scheduler;
        {
            Trace::Scope s(trace, "core.scheduler_start", vparent, id);
            scheduler = std::make_shared<qb::core::Scheduler>(options.jobs);
        }
        std::map<std::pair<std::size_t, std::size_t>,
                 std::unique_ptr<VerificationEngine>>
            sessions;
        std::vector<std::pair<VerificationEngine *,
                              VerificationEngine::Pending>>
            work;
        for (qb::ir::QubitId q :
             program.qubitsWithRole(qb::lang::QubitRole::BorrowVerify)) {
            const auto &info = program.qubits[q];
            auto &engine = sessions[{info.scopeBegin, info.scopeEnd}];
            if (!engine) {
                Trace::Scope s(trace, "core.formula_build", vparent, id);
                engine = std::make_unique<VerificationEngine>(
                    program.circuit.slice(info.scopeBegin, info.scopeEnd),
                    options, scheduler, nullptr);
            }
            Trace::Scope s(trace, "core.prepare", vparent, id);
            work.emplace_back(engine.get(), engine->prepare(q));
        }
        for (auto &[engine, pending] : work) {
            Trace::Scope s(trace, "core.finish_wait", vparent, id);
            result.qubits.push_back(engine->finish(std::move(pending)));
        }
        {
            Trace::Scope s(trace, "core.aggregate", vparent, id);
            for (auto &[scope, engine] : sessions) {
                result.solverTotals.accumulate(
                    engine->aggregateSolverStats());
                const auto &st = engine->stats();
                result.analysisTotals.discharged +=
                    std::int64_t(st.analysisDischarged);
                result.analysisTotals.support +=
                    std::int64_t(st.analysisSupport);
                result.analysisTotals.mirror +=
                    std::int64_t(st.analysisMirror);
                result.analysisTotals.affine +=
                    std::int64_t(st.analysisAffine);
                result.analysisTotals.permutation +=
                    std::int64_t(st.analysisPermutation);
                counters["core.sat_calls"] += double(st.satCalls);
                counters["core.structural"] += double(st.structural);
            }
        }
        result.totalSeconds = now() - begin;
        Trace::Scope s(trace, "core.teardown", vparent, id);
        sessions.clear();
        scheduler.reset();
    }
    {
        Trace::Scope s(trace, "report.to_json", parent, id);
        sink += qb::core::toJson(result, input.name).size();
    }
    return result;
}

/** Layer counters the report carries (same names as run.py's). */
void
addReportCounters(const ProgramResult &result, Counters &c)
{
    for (const auto &q : result.qubits) {
        c["core.build_s"] += q.buildSeconds;
        c["sat.encode_s"] += q.encodeSeconds;
        c["sat.solve_s"] += q.solveSeconds;
        c["core.formula_nodes"] += double(q.formulaNodes);
        c["sat.cnf_clauses"] += double(q.cnfClauses);
        if (q.verdict == qb::core::Verdict::Unsafe)
            c["core.unsafe"] += 1;
        if (q.counterexample)
            c["core.counterexamples"] += 1;
    }
    const auto &s = result.solverTotals;
    c["sat.conflicts"] += double(s.conflicts);
    c["sat.propagations"] += double(s.propagations);
    c["sat.decisions"] += double(s.decisions);
    c["sat.learnt_peak"] += double(s.peakLearnts);
    c["sat.arena_peak_kw"] += double(s.arenaPeakWords) / 1000.0;
    c["sat.gc_runs"] += double(s.gcRuns);
    c["sat.inprocess_runs"] += double(s.inprocessRuns);
    const auto &a = result.analysisTotals;
    c["analysis.discharged"] += double(a.discharged);
    c["analysis.discharged_affine"] += double(a.affine);
    c["analysis.discharged_permutation"] += double(a.permutation);
    c["analysis.discharged_mirror"] += double(a.mirror);
    c["analysis.discharged_support"] += double(a.support);
}

} // namespace

int
runOneShot(const std::string &workload, std::uint64_t seed, bool traced)
{
    // Set-up: a CLI run pays everything per program, so the one-shot
    // set-up is making the inputs and their known answers.  It takes
    // well under a millisecond on adder-sat, so the pass reports the
    // median of kSetupRepeats repeats.
    constexpr int kSetupRepeats = 21;
    std::vector<Input> inputs;
    std::vector<double> setups;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const double begin = now();
        inputs = oneShotInputs(workload);
        setups.push_back(now() - begin);
    }
    std::nth_element(setups.begin(), setups.begin() + kSetupRepeats / 2,
                     setups.end());
    const double setup_seconds = setups[kSetupRepeats / 2];

    Trace trace(traced);
    Counters counters;
    Tally tally;
    std::size_t sink = 0;
    Json json;
    json.beginObject();
    writeHeader(json, workload, seed, traced, setup_seconds);
    json.key("programs").beginArray();

    const double cpu_begin = cpuSeconds();
    const double wall_begin = now();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const Input &input = inputs[i];
        ++tally.attempted;
        const double begin = now();
        ProgramResult result;
        try {
            result = traced ? runTracedPath(input, std::int64_t(i), trace,
                                            counters, sink)
                            : runCliPath(input, sink);
        } catch (const std::exception &e) {
            tally.fail(tally.errors, input.name + ": " + e.what());
            continue;
        }
        const double latency = now() - begin;
        if (traced)
            addReportCounters(result, counters);

        std::vector<qb::core::Verdict> verdicts;
        for (const auto &q : result.qubits)
            verdicts.push_back(q.verdict);
        tally.judge(input, verdicts, "");

        json.beginObject();
        json.key("name").value(input.name);
        json.key("latency_s").value(latency);
        json.key("verdicts").beginArray();
        for (auto v : verdicts)
            json.value(qb::core::verdictName(v));
        json.endArray();
        json.endObject();
    }
    const double wall = now() - wall_begin;
    const double cpu = cpuSeconds() - cpu_begin;
    json.endArray();

    json.key("wall_s").value(wall);
    json.key("cpu_s").value(cpu);
    json.key("peak_rss_kb").value(std::int64_t(peakRssKb()));
    json.key("sink").value(sink);
    writeTally(json, tally);
    json.key("counters").beginObject();
    for (const auto &[name, value] : counters)
        json.key(name).value(value);
    json.endObject();
    json.key("spans").spans(trace.spans());
    json.endObject();
    std::printf("%s\n", json.str().c_str());
    const bool ok = tally.wrong == 0 && tally.unknown == 0 &&
                    tally.errors == 0;
    return ok ? 0 : 1;
}

} // namespace qbbench
