#include "support/fuzz.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/engine.h"
#include "core/reference.h"
#include "core/verifier.h"
#include "lang/elaborate.h"
#include "sat/dimacs.h"
#include "sat/solver.h"
#include "support/strings.h"

namespace qb::fuzz {

const char *
caseKindName(CaseKind kind)
{
    switch (kind) {
      case CaseKind::Qbr:      return "qbr";
      case CaseKind::Cnf:      return "cnf";
      case CaseKind::Analysis: return "analysis";
    }
    return "?";
}

namespace {

/** splitmix64 step: the standard 64-bit mixer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Per-case RNG seed: depends only on (campaign seed, kind, index),
 *  never on scheduling - the root of the --jobs determinism. */
std::uint64_t
caseSeedOf(std::uint64_t seed, CaseKind kind, std::size_t index)
{
    const std::uint64_t salt = kind == CaseKind::Qbr ? 0x71b2ull
                               : kind == CaseKind::Cnf
                                   ? 0xc2f7ull
                                   : 0x5a3dull;
    return mix64(seed ^ mix64(salt) ^
                 mix64(static_cast<std::uint64_t>(index) + 1));
}

/** Slot layout: [qbr cases][cnf cases][analysis cases]. */
CaseKind
kindOfSlot(const FuzzOptions &options, std::size_t slot)
{
    if (slot < options.qbrCases)
        return CaseKind::Qbr;
    if (slot < options.qbrCases + options.cnfCases)
        return CaseKind::Cnf;
    return CaseKind::Analysis;
}

std::size_t
indexOfSlot(const FuzzOptions &options, std::size_t slot)
{
    switch (kindOfSlot(options, slot)) {
      case CaseKind::Qbr: return slot;
      case CaseKind::Cnf: return slot - options.qbrCases;
      case CaseKind::Analysis:
        return slot - options.qbrCases - options.cnfCases;
    }
    return slot;
}

/** FNV-1a over a byte string. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Brute-force satisfiability; callers bound numVars. */
bool
bruteForceSat(const sat::Cnf &cnf)
{
    if (cnf.trivialConflict())
        return false;
    const auto n = static_cast<unsigned>(cnf.numVars());
    std::vector<sat::LBool> assign(n);
    for (std::uint64_t bits = 0; bits < (1ull << n); ++bits) {
        for (unsigned v = 0; v < n; ++v)
            assign[v] = sat::lboolOf(((bits >> v) & 1) != 0);
        if (cnf.satisfiedBy(assign))
            return true;
    }
    return false;
}

const char *
solveResultName(sat::SolveResult r)
{
    switch (r) {
      case sat::SolveResult::Sat:     return "Sat";
      case sat::SolveResult::Unsat:   return "Unsat";
      case sat::SolveResult::Unknown: return "Unknown";
    }
    return "?";
}

/** Everything a worker records about one case; assembled into the
 *  report (and shrunk) sequentially afterwards. */
struct CaseOutcome
{
    bool disagreed = false;
    std::string detail;
    /** Generated input, unshrunk: DIMACS text or qbr source. */
    std::string artifact;
    std::uint64_t digest = 0;
    std::size_t satVerdicts = 0, unsatVerdicts = 0;
    std::size_t safeQubits = 0, unsafeQubits = 0;
};

/** The two differential CNF lanes.  @p drop_clause, when not npos,
 *  is the injected bug: that clause never reaches the simplify
 *  lane. */
struct CnfCheckConfig
{
    sat::Var bruteForceMaxVars = 12;
    std::size_t dropClause = std::string::npos;
};

/** Build a solver over @p cnf, optionally skipping one clause. */
sat::SolveResult
solveLane(const sat::Cnf &cnf, const sat::SolverConfig &config,
          std::size_t skip_clause, std::vector<sat::LBool> *model_out)
{
    sat::Solver solver(config);
    while (solver.numVars() < cnf.numVars())
        solver.newVar();
    const auto &clauses = cnf.clauses();
    for (std::size_t i = 0; i < clauses.size(); ++i) {
        if (i == skip_clause)
            continue;
        if (!solver.addClause(clauses[i]))
            break;
    }
    const sat::SolveResult result = solver.solve();
    if (result == sat::SolveResult::Sat && model_out != nullptr) {
        model_out->resize(cnf.numVars());
        for (sat::Var v = 0; v < cnf.numVars(); ++v)
            (*model_out)[v] = solver.modelValue(v);
    }
    return result;
}

/** Cross-check one CNF along every independent path; empty string
 *  means agreement. */
std::string
crossCheckCnf(const sat::Cnf &cnf, const CnfCheckConfig &config,
              sat::SolveResult *verdict_out)
{
    const std::size_t drop =
        config.dropClause != std::string::npos && cnf.numClauses() > 0
            ? config.dropClause % cnf.numClauses()
            : std::string::npos;

    std::vector<sat::LBool> model_a, model_b;
    const sat::SolveResult a =
        solveLane(cnf, sat::SolverConfig::baseline(),
                  std::string::npos, &model_a);
    const sat::SolveResult b = solveLane(
        cnf, sat::SolverConfig::simplify(), drop, &model_b);
    if (verdict_out != nullptr)
        *verdict_out = a;

    if (a != b)
        return format("preset disagreement: baseline=%s simplify=%s",
                      solveResultName(a), solveResultName(b));
    std::size_t failed = 0;
    if (a == sat::SolveResult::Sat &&
        !sat::validateModel(cnf.clauses(), model_a, &failed))
        return format("baseline model violates clause %zu", failed);
    if (b == sat::SolveResult::Sat &&
        !sat::validateModel(cnf.clauses(), model_b, &failed))
        return format("simplify model violates clause %zu", failed);
    if (cnf.numVars() <= config.bruteForceMaxVars) {
        const bool brute = bruteForceSat(cnf);
        const bool solver_sat = a == sat::SolveResult::Sat;
        if (brute != solver_sat)
            return format("brute force says %s, solvers say %s",
                          brute ? "Sat" : "Unsat",
                          solveResultName(a));
    }
    return {};
}

/** Cross-check one qbr program; empty string means agreement.
 *  Throws what the pipeline throws (runFuzz's caller wraps). */
std::string
crossCheckQbr(const std::string &src, std::size_t *safe_out,
              std::size_t *unsafe_out)
{
    const lang::ElaboratedProgram prog = lang::elaborateSource(src);
    // jobs=1: each fuzz worker thread is already one lane of
    // parallelism.
    auto engine_options = [](const core::VerifierOptions &lane) {
        core::EngineOptions o = core::EngineOptions::singleLane(lane);
        o.jobs = 1;
        return o;
    };
    const core::ProgramResult lane_a = core::verifyAll(
        prog, engine_options(core::VerifierOptions::laneA()));
    const core::ProgramResult lane_b = core::verifyAll(
        prog, engine_options(core::VerifierOptions::laneB()));
    if (lane_a.qubits.size() != lane_b.qubits.size())
        return format("lane A reported %zu qubits, lane B %zu",
                      lane_a.qubits.size(), lane_b.qubits.size());
    for (std::size_t i = 0; i < lane_a.qubits.size(); ++i) {
        const core::QubitResult &ra = lane_a.qubits[i];
        const core::QubitResult &rb = lane_b.qubits[i];
        if (ra.verdict != rb.verdict)
            return format("qubit %s: lane A says %s, lane B says %s",
                          ra.name.c_str(),
                          core::verdictName(ra.verdict),
                          core::verdictName(rb.verdict));
        const auto &info = prog.qubits[ra.qubit];
        const ir::Circuit scope =
            prog.circuit.slice(info.scopeBegin, info.scopeEnd);
        const core::Verdict oracle =
            core::bruteForceVerdict(scope, ra.qubit);
        if (oracle != ra.verdict)
            return format(
                "qubit %s: brute force says %s, engine says %s",
                ra.name.c_str(), core::verdictName(oracle),
                core::verdictName(ra.verdict));
        if (safe_out != nullptr &&
            ra.verdict == core::Verdict::Safe)
            ++*safe_out;
        if (unsafe_out != nullptr &&
            ra.verdict == core::Verdict::Unsafe)
            ++*unsafe_out;
    }
    return {};
}

/**
 * Cross-check one qbr program with the static dischargers on vs off,
 * on the default lane and on lane A; empty string means agreement.
 * The dischargers are UNSAT-only proofs, so within each lane verdict,
 * failed condition and counterexample must all be bit-identical -
 * formulaNodes / solvedStructurally / analysisTotals legitimately
 * differ (that is the point of the passes) and are not compared.
 * Safe/unsafe tallies count the default lane's verdicts.  Throws what
 * the pipeline throws (callers wrap).
 */
std::string
crossCheckAnalysis(const std::string &src, std::size_t *safe_out,
                   std::size_t *unsafe_out)
{
    const lang::ElaboratedProgram prog = lang::elaborateSource(src);
    for (const bool default_lane : {true, false}) {
        const char *lane_name = default_lane ? "default lane" : "lane A";
        auto engine_options = [default_lane](bool with_analysis) {
            core::EngineOptions o = default_lane
                ? core::EngineOptions{}
                : core::EngineOptions::singleLane(
                      core::VerifierOptions::laneA());
            o.jobs = 1;
            if (!with_analysis)
                o.analysis = analysis::AnalysisOptions::none();
            return o;
        };
        const core::ProgramResult on =
            core::verifyAll(prog, engine_options(true));
        const core::ProgramResult off =
            core::verifyAll(prog, engine_options(false));
        if (on.qubits.size() != off.qubits.size())
            return format(
                "%s: analysis-on reported %zu qubits, analysis-off %zu",
                lane_name, on.qubits.size(), off.qubits.size());
        for (std::size_t i = 0; i < on.qubits.size(); ++i) {
            const core::QubitResult &ra = on.qubits[i];
            const core::QubitResult &rb = off.qubits[i];
            if (ra.verdict != rb.verdict)
                return format("%s, qubit %s: analysis-on says %s, "
                              "analysis-off says %s",
                              lane_name, ra.name.c_str(),
                              core::verdictName(ra.verdict),
                              core::verdictName(rb.verdict));
            if (ra.failed != rb.failed)
                return format("%s, qubit %s: failed-condition mismatch "
                              "(analysis-on %d, analysis-off %d)",
                              lane_name, ra.name.c_str(),
                              static_cast<int>(ra.failed),
                              static_cast<int>(rb.failed));
            if (ra.counterexample != rb.counterexample)
                return format(
                    "%s, qubit %s: counterexample mismatch "
                    "(analysis-on has%s one, analysis-off has%s one)",
                    lane_name, ra.name.c_str(),
                    ra.counterexample.has_value() ? "" : " not",
                    rb.counterexample.has_value() ? "" : " not");
            if (!default_lane)
                continue;
            if (safe_out != nullptr &&
                ra.verdict == core::Verdict::Safe)
                ++*safe_out;
            if (unsafe_out != nullptr &&
                ra.verdict == core::Verdict::Unsafe)
                ++*unsafe_out;
        }
    }
    return {};
}

/**
 * Generic ddmin (Zeller's delta debugging, minimizing variant) over
 * an item vector: repeatedly try dropping complement chunks at
 * doubling granularity, keeping any subset on which @p fails still
 * holds.  @p fails sees candidate subsets in original order.
 */
template <typename T, typename Fails>
std::vector<T>
ddmin(std::vector<T> items, const Fails &fails)
{
    std::size_t granularity = 2;
    while (items.size() >= 2) {
        const std::size_t chunk =
            std::max<std::size_t>(1, items.size() / granularity);
        bool reduced = false;
        for (std::size_t start = 0; start < items.size();
             start += chunk) {
            std::vector<T> candidate;
            candidate.reserve(items.size());
            for (std::size_t i = 0; i < items.size(); ++i) {
                if (i >= start && i < start + chunk)
                    continue;
                candidate.push_back(items[i]);
            }
            if (candidate.size() < items.size() && fails(candidate)) {
                items = std::move(candidate);
                granularity = std::max<std::size_t>(2,
                                                    granularity - 1);
                reduced = true;
                break;
            }
        }
        if (!reduced) {
            if (chunk == 1)
                break;
            granularity = std::min(items.size(), granularity * 2);
        }
    }
    return items;
}

sat::Cnf
rebuildCnf(const std::vector<sat::LitVec> &clauses)
{
    sat::Cnf cnf;
    for (const sat::LitVec &c : clauses)
        cnf.addClause(c);
    return cnf;
}

/** Renumber the variables actually used densely from 0. */
sat::Cnf
compactVars(const sat::Cnf &cnf)
{
    std::vector<sat::Var> remap(cnf.numVars(), -1);
    sat::Var next = 0;
    for (const sat::LitVec &c : cnf.clauses())
        for (sat::Lit l : c)
            if (remap[l.var()] < 0)
                remap[l.var()] = next++;
    sat::Cnf out;
    for (const sat::LitVec &c : cnf.clauses()) {
        sat::LitVec mapped;
        mapped.reserve(c.size());
        for (sat::Lit l : c)
            mapped.push_back(sat::mkLit(remap[l.var()], l.sign()));
        out.addClause(std::move(mapped));
    }
    return out;
}

} // namespace

sat::Cnf
generateCnf(Rng &rng, const CnfKnobs &knobs)
{
    const auto vars = static_cast<sat::Var>(
        knobs.minVars +
        static_cast<sat::Var>(rng.nextBelow(
            static_cast<std::uint64_t>(knobs.maxVars -
                                       knobs.minVars) +
            1)));
    const auto clauses = static_cast<std::size_t>(
        knobs.clauseVarRatio * vars + 0.5);
    sat::Cnf cnf;
    cnf.ensureVars(vars);
    for (std::size_t i = 0; i < clauses; ++i) {
        unsigned len;
        if (rng.nextBool(knobs.unitProb)) {
            len = 1;
        } else if (rng.nextBool(knobs.binaryProb)) {
            len = 2;
        } else {
            len = 3 + static_cast<unsigned>(rng.nextBelow(
                          std::max(1u, knobs.maxClauseLen - 2)));
        }
        sat::LitVec lits;
        lits.reserve(len);
        for (unsigned j = 0; j < len; ++j) {
            const auto v = static_cast<sat::Var>(
                rng.nextBelow(static_cast<std::uint64_t>(vars)));
            lits.push_back(sat::mkLit(v, rng.nextBool()));
        }
        cnf.addClause(std::move(lits));
    }
    return cnf;
}

sat::Cnf
shrinkCnf(const sat::Cnf &failing,
          const std::function<bool(const sat::Cnf &)> &fails)
{
    const auto guarded = [&fails](const sat::Cnf &candidate) {
        try {
            return fails(candidate);
        } catch (...) {
            return false;
        }
    };
    // 1. Clause-level ddmin.
    std::vector<sat::LitVec> clauses =
        ddmin(failing.clauses(), [&](const auto &subset) {
            return guarded(rebuildCnf(subset));
        });
    // 2. Literal stripping, to fixpoint per clause.  Never below one
    //    literal: an empty clause is trivialConflict for every
    //    consumer, so it "fails" most predicates while exercising
    //    nothing - a useless reproducer.
    for (std::size_t i = 0; i < clauses.size(); ++i) {
        for (std::size_t j = 0;
             clauses[i].size() > 1 && j < clauses[i].size();) {
            std::vector<sat::LitVec> candidate = clauses;
            candidate[i].erase(candidate[i].begin() +
                               static_cast<std::ptrdiff_t>(j));
            if (guarded(rebuildCnf(candidate)))
                clauses = std::move(candidate);
            else
                ++j;
        }
    }
    // 3. Dense variable renumbering (cosmetic, but reproducers
    //    should not mention variables they no longer constrain).
    sat::Cnf shrunk = rebuildCnf(clauses);
    sat::Cnf compact = compactVars(shrunk);
    return guarded(compact) ? compact : shrunk;
}

std::string
shrinkQbr(const std::string &failing,
          const std::function<bool(const std::string &)> &fails)
{
    const auto guarded = [&fails](const std::string &candidate) {
        try {
            return fails(candidate);
        } catch (...) {
            return false;
        }
    };
    std::vector<std::string> lines;
    std::istringstream in(failing);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    const auto rebuild = [](const std::vector<std::string> &ls) {
        std::string out;
        for (const std::string &l : ls) {
            out += l;
            out += '\n';
        }
        return out;
    };
    lines = ddmin(std::move(lines), [&](const auto &subset) {
        return guarded(rebuild(subset));
    });
    return rebuild(lines);
}

FuzzReport
runFuzz(const FuzzOptions &options)
{
    const std::size_t total =
        options.qbrCases + options.cnfCases + options.analysisCases;
    std::vector<CaseOutcome> outcomes(total);

    const auto run_case = [&options](std::size_t slot) {
        CaseOutcome out;
        const CaseKind kind = kindOfSlot(options, slot);
        const std::size_t index = indexOfSlot(options, slot);
        const std::uint64_t case_seed =
            caseSeedOf(options.seed, kind, index);
        Rng rng(case_seed);
        try {
            if (kind == CaseKind::Qbr) {
                out.artifact =
                    circuits::randomQbrSource(rng, options.qbr);
                out.detail = crossCheckQbr(
                    out.artifact, &out.safeQubits,
                    &out.unsafeQubits);
            } else if (kind == CaseKind::Analysis) {
                out.artifact = circuits::randomQbrSource(
                    rng, options.analysisQbr);
                out.detail = crossCheckAnalysis(
                    out.artifact, &out.safeQubits,
                    &out.unsafeQubits);
            } else {
                const sat::Cnf cnf = generateCnf(rng, options.cnf);
                out.artifact = sat::writeDimacsString(cnf);
                CnfCheckConfig check;
                check.bruteForceMaxVars = options.bruteForceMaxVars;
                if (options.injectCnfBug)
                    check.dropClause =
                        static_cast<std::size_t>(case_seed >> 8);
                sat::SolveResult verdict = sat::SolveResult::Unknown;
                out.detail = crossCheckCnf(cnf, check, &verdict);
                if (verdict == sat::SolveResult::Sat)
                    out.satVerdicts = 1;
                else if (verdict == sat::SolveResult::Unsat)
                    out.unsatVerdicts = 1;
            }
        } catch (const std::exception &e) {
            out.detail =
                format("exception escaped the pipeline: %s",
                       e.what());
        }
        out.disagreed = !out.detail.empty();
        out.digest = fnv1a(out.artifact);
        return out;
    };

    const unsigned jobs = std::max(1u, options.jobs);
    if (jobs == 1 || total <= 1) {
        for (std::size_t i = 0; i < total; ++i)
            outcomes[i] = run_case(i);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> workers;
        workers.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t) {
            workers.emplace_back([&] {
                for (std::size_t i = next.fetch_add(1); i < total;
                     i = next.fetch_add(1))
                    outcomes[i] = run_case(i);
            });
        }
        for (std::thread &w : workers)
            w.join();
    }

    // Sequential, index-ordered collection: tallies, the
    // order-independent corpus digest, and - for the first
    // maxDisagreements failures - shrinking and reproducer files.
    // Everything below is deterministic in (options) alone.
    FuzzReport report;
    report.qbrCases = options.qbrCases;
    report.cnfCases = options.cnfCases;
    report.analysisCases = options.analysisCases;
    for (std::size_t slot = 0; slot < total; ++slot) {
        const CaseOutcome &out = outcomes[slot];
        report.corpusDigest += out.digest; // commutative fold
        report.satVerdicts += out.satVerdicts;
        report.unsatVerdicts += out.unsatVerdicts;
        report.safeQubits += out.safeQubits;
        report.unsafeQubits += out.unsafeQubits;
        if (!out.disagreed ||
            report.disagreements.size() >= options.maxDisagreements)
            continue;

        Disagreement d;
        d.kind = kindOfSlot(options, slot);
        d.index = indexOfSlot(options, slot);
        d.caseSeed = caseSeedOf(options.seed, d.kind, d.index);
        d.detail = out.detail;

        if (d.kind == CaseKind::Cnf) {
            std::istringstream in(out.artifact);
            const sat::Cnf original = sat::readDimacsOrThrow(in);
            CnfCheckConfig check;
            check.bruteForceMaxVars = options.bruteForceMaxVars;
            const std::uint64_t case_seed = d.caseSeed;
            const bool inject = options.injectCnfBug;
            const sat::Cnf shrunk = shrinkCnf(
                original, [case_seed, inject,
                           &check](const sat::Cnf &candidate) {
                    CnfCheckConfig c = check;
                    if (inject)
                        c.dropClause = static_cast<std::size_t>(
                            case_seed >> 8);
                    return !crossCheckCnf(candidate, c, nullptr)
                                .empty();
                });
            d.artifact = sat::writeDimacsString(
                shrunk,
                {format("qbfuzz reproducer (shrunk)"),
                 format("campaign seed=%llu %s case %zu "
                        "(case seed 0x%llx)",
                        static_cast<unsigned long long>(
                            options.seed),
                        caseKindName(d.kind), d.index,
                        static_cast<unsigned long long>(
                            d.caseSeed)),
                 "mismatch: " + d.detail});
        } else {
            const bool analysis = d.kind == CaseKind::Analysis;
            const std::string shrunk = shrinkQbr(
                out.artifact,
                [analysis](const std::string &candidate) {
                    return !(analysis
                                 ? crossCheckAnalysis(candidate,
                                                      nullptr,
                                                      nullptr)
                                 : crossCheckQbr(candidate, nullptr,
                                                 nullptr))
                                .empty();
                });
            d.artifact =
                format("// qbfuzz reproducer (shrunk)\n"
                       "// campaign seed=%llu %s case %zu "
                       "(case seed 0x%llx)\n"
                       "// mismatch: %s\n",
                       static_cast<unsigned long long>(options.seed),
                       caseKindName(d.kind), d.index,
                       static_cast<unsigned long long>(d.caseSeed),
                       d.detail.c_str()) +
                shrunk;
        }

        if (!options.reproducerDir.empty()) {
            d.reproducerPath = format(
                "%s/qbfuzz-%s-seed%llu-case%zu.%s",
                options.reproducerDir.c_str(),
                caseKindName(d.kind),
                static_cast<unsigned long long>(options.seed),
                d.index, d.kind == CaseKind::Cnf ? "cnf" : "qbr");
            std::ofstream file(d.reproducerPath,
                               std::ios::binary | std::ios::trunc);
            file << d.artifact;
        }
        report.disagreements.push_back(std::move(d));
    }
    return report;
}

} // namespace qb::fuzz
