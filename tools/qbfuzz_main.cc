/**
 * @file
 * qbfuzz: the differential fuzzing harness (support/fuzz.h) as a CLI.
 *
 * One invocation is one campaign: `qbfuzz --seed 7 --qbr 500 --cnf
 * 500 --jobs 4 --out fuzz-out` generates the seeded corpus, decides
 * every case along independent paths (both solver presets + model
 * validation + brute force for CNF; both verification lanes + the
 * brute-force oracle for qbr programs), shrinks any disagreement to a
 * minimal reproducer in --out, and prints a summary.  Exit codes:
 * 0 = every case agreed, 1 = at least one disagreement (reproducers
 * written), 2 = usage error.  The corpus and every verdict are
 * deterministic in --seed alone - --jobs changes wall-clock time,
 * never bytes - so a CI failure replays locally from the seed in the
 * log.  --inject-cnf-bug turns on the built-in solver sabotage
 * (dropping one clause from the differential lane) and is how the
 * harness proves it would notice a real bug.
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>

#include "support/fuzz.h"
#include "support/logging.h"
#include "support/strings.h"

namespace {

[[nodiscard]] int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --seed N               campaign seed (default 1)\n"
        "  --qbr N                random program cases (default 250)\n"
        "  --cnf N                random CNF cases (default 250)\n"
        "  --analysis N           analysis-on/off differential "
        "cases (default 250)\n"
        "  --jobs N               worker threads, at most 1024; "
        "0 = hardware (default 1)\n"
        "  --out DIR              write shrunk reproducers here "
        "(must exist)\n"
        "  --max-vars N           CNF generator variable cap "
        "(default 16)\n"
        "  --ratio R              CNF clauses-per-variable "
        "(default 4.2)\n"
        "  --binary-prob P        binary-clause probability "
        "(default 0.45)\n"
        "  --brute-max N          brute-force CNFs up to N vars "
        "(default 12)\n"
        "  --max-disagreements N  stop shrinking after N failures "
        "(default 4)\n"
        "  --inject-cnf-bug       sabotage one lane (harness "
        "self-test)\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    qb::fuzz::FuzzOptions options;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto next = [&]() -> const char * {
                if (i + 1 >= argc)
                    throw std::invalid_argument(
                        "missing value for " + arg);
                return argv[++i];
            };
            // Every integer flag goes through qb::parseInt: a malformed
            // or out-of-range value is a usage error, never a silent 0.
            const auto integer = [&](std::int64_t max) {
                const std::string text = next();
                const auto value = qb::parseInt(text, 0, max);
                if (!value)
                    throw std::invalid_argument(
                        "bad value '" + text + "' for " + arg);
                return *value;
            };
            constexpr std::int64_t kMax =
                std::numeric_limits<std::int64_t>::max();
            constexpr std::int64_t kMaxVar =
                std::numeric_limits<qb::sat::Var>::max();
            if (arg == "--seed")
                options.seed = static_cast<std::uint64_t>(integer(kMax));
            else if (arg == "--qbr")
                options.qbrCases = static_cast<std::size_t>(integer(kMax));
            else if (arg == "--cnf")
                options.cnfCases = static_cast<std::size_t>(integer(kMax));
            else if (arg == "--analysis")
                options.analysisCases =
                    static_cast<std::size_t>(integer(kMax));
            else if (arg == "--jobs")
                options.jobs = static_cast<unsigned>(integer(1024));
            else if (arg == "--out")
                options.reproducerDir = next();
            else if (arg == "--max-vars")
                options.cnf.maxVars =
                    static_cast<qb::sat::Var>(integer(kMaxVar));
            else if (arg == "--ratio")
                options.cnf.clauseVarRatio =
                    std::strtod(next(), nullptr);
            else if (arg == "--binary-prob")
                options.cnf.binaryProb =
                    std::strtod(next(), nullptr);
            else if (arg == "--brute-max")
                options.bruteForceMaxVars =
                    static_cast<qb::sat::Var>(integer(kMaxVar));
            else if (arg == "--max-disagreements")
                options.maxDisagreements =
                    static_cast<std::size_t>(integer(kMax));
            else if (arg == "--inject-cnf-bug")
                options.injectCnfBug = true;
            else
                return usage(argv[0]);
        }
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return usage(argv[0]);
    }
    if (options.jobs == 0)
        options.jobs =
            std::max(1u, std::thread::hardware_concurrency());
    if (options.cnf.maxVars < options.cnf.minVars) {
        std::fprintf(stderr,
                     "error: --max-vars must be at least %d\n",
                     options.cnf.minVars);
        return 2;
    }

    std::printf(
        "c qbfuzz seed=%llu qbr=%zu cnf=%zu analysis=%zu jobs=%u%s\n",
        static_cast<unsigned long long>(options.seed),
        options.qbrCases, options.cnfCases, options.analysisCases,
        options.jobs, options.injectCnfBug ? " inject-cnf-bug" : "");

    try {
        const qb::fuzz::FuzzReport report = qb::fuzz::runFuzz(options);
        std::printf("c corpus digest %016llx\n",
                    static_cast<unsigned long long>(
                        report.corpusDigest));
        std::printf("c cnf verdicts: %zu sat, %zu unsat\n",
                    report.satVerdicts, report.unsatVerdicts);
        std::printf("c qbr/analysis qubits: %zu safe, %zu unsafe\n",
                    report.safeQubits, report.unsafeQubits);
        for (const auto &d : report.disagreements) {
            std::printf("d %s case %zu (seed 0x%llx): %s\n",
                        qb::fuzz::caseKindName(d.kind), d.index,
                        static_cast<unsigned long long>(d.caseSeed),
                        d.detail.c_str());
            if (!d.reproducerPath.empty())
                std::printf("d   reproducer: %s\n",
                            d.reproducerPath.c_str());
        }
        if (!report.ok()) {
            std::printf("c FAIL: %zu disagreement(s)\n",
                        report.disagreements.size());
            return 1;
        }
        std::printf("c PASS: %zu cases, no disagreements\n",
                    options.qbrCases + options.cnfCases +
                        options.analysisCases);
        return 0;
    } catch (const qb::FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
