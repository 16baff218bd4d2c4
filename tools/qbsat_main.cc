/**
 * @file
 * qbsat: the in-tree CDCL solver as a standalone DIMACS tool.
 *
 * `qbsat --dimacs file.cnf` (or a bare positional path; "-" reads
 * stdin) streams the file through the strict located DIMACS reader
 * (sat/dimacs.h), decides it with sat::Solver - learn-time OTF
 * subsumption, plus bounded variable elimination under --simplify -
 * and prints the result SAT-competition style: "s SATISFIABLE" plus "v" model lines, or
 * "s UNSATISFIABLE".  Exit codes follow the competition convention:
 * 10 = SAT, 20 = UNSAT, 0 = unknown (conflict budget exhausted), and
 * 2 for usage or input errors - a malformed file is one located line
 * on stderr ("error: file.cnf:3:7: ..."), never a crash.  Every
 * model is re-validated against the clause list before printing.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "sat/dimacs.h"
#include "sat/solver.h"
#include "support/logging.h"
#include "support/strings.h"
#include "support/timer.h"

namespace {

[[nodiscard]] int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--dimacs] [--simplify] [--stats] "
                 "[--budget N] file.cnf (or - for stdin)\n",
                 argv0);
    return 2;
}

/** Print the model competition-style: "v" lines capped near 78
 *  columns, terminated by the literal 0. */
void
printModel(const qb::sat::Solver &solver, qb::sat::Var num_vars)
{
    std::string line = "v";
    auto flush_if_long = [&line] {
        if (line.size() >= 74) {
            std::printf("%s\n", line.c_str());
            line = "v";
        }
    };
    for (qb::sat::Var v = 0; v < num_vars; ++v) {
        const bool value =
            solver.modelValue(v) == qb::sat::LBool::True;
        line += ' ';
        line += std::to_string((value ? 1 : -1) * (v + 1));
        flush_if_long();
    }
    std::printf("%s 0\n", line.c_str());
}

/** Flag scan, streamed DIMACS read, solve, print. */
int
run(int argc, char **argv)
{
    std::string path;
    bool simplify = false;
    bool stats = false;
    std::int64_t budget = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--simplify") {
            simplify = true;
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--budget" && i + 1 < argc) {
            const auto value = qb::parseInt(
                argv[++i], -1, std::numeric_limits<std::int64_t>::max());
            if (!value)
                return usage(argv[0]);
            budget = *value;
        } else if (arg == "--dimacs" && i + 1 < argc &&
                   path.empty()) {
            path = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0]);
        } else if (path.empty() && (arg == "-" || arg[0] != '-')) {
            path = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (path.empty())
        return usage(argv[0]);
    // Build the config only after the flag scan: presets and tweaks
    // compose in any order (previously `--budget N --simplify` lost
    // the budget because the preset replaced the whole config).
    qb::sat::SolverConfig config = simplify
        ? qb::sat::SolverConfig::simplify()
        : qb::sat::SolverConfig::baseline();
    config.conflictBudget = budget;

    // Stream straight from the file (or stdin): the strict reader
    // never needs the whole text in memory, and a malformed file is
    // a located error, not an exception or a crash.
    qb::sat::DimacsResult parsed;
    std::string label = path;
    if (path == "-") {
        label = "<stdin>";
        parsed = qb::sat::readDimacs(std::cin);
    } else {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "error: cannot open '%s'\n",
                         path.c_str());
            return 2;
        }
        parsed = qb::sat::readDimacs(in);
    }
    if (!parsed.ok) {
        std::fprintf(stderr, "error: %s:%s\n", label.c_str(),
                     parsed.error.str().c_str());
        return 2;
    }

    const qb::sat::Cnf &cnf = parsed.cnf;
    qb::sat::Solver solver(config);
    solver.addCnf(cnf);
    const qb::Timer solve_timer;
    const qb::sat::SolveResult result = solver.solve();
    const double solve_seconds = solve_timer.seconds();
    if (stats) {
        const auto &s = solver.stats();
        std::printf("c conflicts %lld decisions %lld "
                    "propagations %lld restarts %lld "
                    "eliminated %lld\n",
                    static_cast<long long>(s.conflicts),
                    static_cast<long long>(s.decisions),
                    static_cast<long long>(s.propagations),
                    static_cast<long long>(s.restarts),
                    static_cast<long long>(s.eliminatedVars));
        std::printf("c otf-strengthened %lld otf-skipped %lld\n",
                    static_cast<long long>(s.otfStrengthenedClauses),
                    static_cast<long long>(s.otfSkipped));
        // solve() time split: bounded variable elimination at entry,
        // and the search after it.
        std::printf("c preprocess-seconds %.6f search-seconds %.6f\n",
                    s.preprocessSeconds,
                    solve_seconds - s.preprocessSeconds);
    }
    switch (result) {
      case qb::sat::SolveResult::Sat: {
        std::vector<qb::sat::LBool> model(cnf.numVars());
        for (qb::sat::Var v = 0; v < cnf.numVars(); ++v)
            model[v] = solver.modelValue(v);
        std::size_t failed = 0;
        if (!qb::sat::validateModel(cnf.clauses(), model, &failed)) {
            // A Sat verdict whose model violates a clause is a
            // solver bug; report it instead of printing a lie.
            std::fprintf(stderr,
                         "error: %s: solver model violates clause "
                         "%zu (internal error)\n",
                         label.c_str(), failed);
            return 1;
        }
        std::printf("s SATISFIABLE\n");
        printModel(solver, cnf.numVars());
        return 10;
      }
      case qb::sat::SolveResult::Unsat:
        std::printf("s UNSATISFIABLE\n");
        return 20;
      case qb::sat::SolveResult::Unknown:
        std::printf("s UNKNOWN\n");
        return 0;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Exceptions never escape main: any residual throw is a clean
    // one-line error and exit 2, not an unhandled abort.
    try {
        return run(argc, argv);
    } catch (const qb::FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
