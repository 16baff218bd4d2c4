/**
 * @file
 * DIMACS reader/writer suite over the golden corpus in
 * tests/data/dimacs/ plus precise located-error pins.
 *
 * Corpus conventions: every .cnf file in good/ must parse, round-trip
 * byte-stably through the writer, and solve with bounded variable
 * elimination on and off to the verdict its filename encodes
 * (*_sat.cnf / *_unsat.cnf - the CI smoke job derives qbsat's expected
 * exit code the same way); every .cnf file in bad/ must produce a
 * located error, never a crash or a silent misparse.  The qbsat binary
 * itself is driven for its exit codes.  Builds as its own binary
 * (ctest -L dimacs) so the sanitizer jobs can run the parser's error
 * paths directly; QB_TEST_DATA_DIR and QB_QBSAT_PATH come from CMake.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "sat/dimacs.h"
#include "sat/solver.h"
#include "support/logging.h"

namespace qb::sat {
namespace {

namespace fs = std::filesystem;

fs::path
corpusDir(const char *sub)
{
    return fs::path(QB_TEST_DATA_DIR) / "dimacs" / sub;
}

std::vector<fs::path>
corpusFiles(const char *sub)
{
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(corpusDir(sub)))
        if (entry.path().extension() == ".cnf")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    EXPECT_FALSE(files.empty())
        << "golden corpus missing under " << corpusDir(sub);
    return files;
}

DimacsResult
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return readDimacs(in);
}

TEST(DimacsCorpus, GoodFilesParse)
{
    for (const fs::path &path : corpusFiles("good")) {
        const DimacsResult result = readFile(path);
        EXPECT_TRUE(result.ok)
            << path << ": " << result.error.str();
    }
}

TEST(DimacsCorpus, GoodFilesRoundTrip)
{
    // read -> write -> read must yield an equal formula.  Comparing
    // the two PARSED forms (not bytes against the original file)
    // makes the property robust to canonicalization: a stored
    // tautology-free formula serializes to fewer clauses than its
    // source declared, and that is correct.
    for (const fs::path &path : corpusFiles("good")) {
        const DimacsResult first = readFile(path);
        ASSERT_TRUE(first.ok) << path;
        const std::string written = writeDimacsString(first.cnf);
        std::istringstream in(written);
        const DimacsResult second = readDimacs(in);
        ASSERT_TRUE(second.ok)
            << path << ": writer output failed to parse: "
            << second.error.str();
        EXPECT_EQ(first.cnf.numVars(), second.cnf.numVars()) << path;
        EXPECT_EQ(first.cnf.clauses(), second.cnf.clauses()) << path;
        // And the writer is a fixpoint: serializing the re-read
        // formula reproduces the bytes exactly.
        EXPECT_EQ(written, writeDimacsString(second.cnf)) << path;
    }
}

TEST(DimacsCorpus, GoodVerdictsMatchFilenameBothPresets)
{
    for (const fs::path &path : corpusFiles("good")) {
        const std::string name = path.stem().string();
        const bool expect_sat =
            name.size() >= 4 &&
            name.compare(name.size() - 4, 4, "_sat") == 0;
        const bool expect_unsat =
            name.size() >= 6 &&
            name.compare(name.size() - 6, 6, "_unsat") == 0;
        ASSERT_TRUE(expect_sat || expect_unsat)
            << path << ": good corpus filenames must end in _sat or "
                       "_unsat";
        const DimacsResult result = readFile(path);
        ASSERT_TRUE(result.ok) << path;
        const SolveResult expected =
            expect_sat ? SolveResult::Sat : SolveResult::Unsat;
        EXPECT_EQ(expected,
                  solveCnf(result.cnf, SolverConfig{.preprocess = false}))
            << path << " (no elimination)";
        EXPECT_EQ(expected, solveCnf(result.cnf))
            << path << " (elimination)";
    }
}

TEST(DimacsCorpus, BadFilesAreLocatedErrors)
{
    for (const fs::path &path : corpusFiles("bad")) {
        const DimacsResult result = readFile(path);
        EXPECT_FALSE(result.ok)
            << path << ": malformed file accepted";
        EXPECT_GE(result.error.line, 1u) << path;
        EXPECT_GE(result.error.column, 1u) << path;
        EXPECT_FALSE(result.error.message.empty()) << path;
        // The throwing wrapper agrees and carries the location.
        std::ifstream in(path, std::ios::binary);
        EXPECT_THROW(readDimacsOrThrow(in), FatalError) << path;
    }
}

// ------------------------------------------------ located-error pins

DimacsError
errorOf(const std::string &text)
{
    std::istringstream in(text);
    const DimacsResult result = readDimacs(in);
    EXPECT_FALSE(result.ok) << text;
    return result.error;
}

TEST(DimacsErrors, LocationsArePrecise)
{
    {
        const DimacsError e = errorOf("1 0\n");
        EXPECT_EQ(1u, e.line);
        EXPECT_EQ(1u, e.column);
        EXPECT_NE(std::string::npos,
                  e.message.find("before the 'p cnf' header"));
    }
    {
        // Unterminated clause: located at the CLAUSE START, which is
        // where the missing 0 belongs conceptually.
        const DimacsError e = errorOf("p cnf 2 1\n1 2\n");
        EXPECT_EQ(2u, e.line);
        EXPECT_EQ(1u, e.column);
        EXPECT_NE(std::string::npos, e.message.find("unterminated"));
    }
    {
        const DimacsError e = errorOf("p cnf 2 1\n1 3 0\n");
        EXPECT_EQ(2u, e.line);
        EXPECT_EQ(3u, e.column);
        EXPECT_NE(std::string::npos, e.message.find("out of range"));
    }
    {
        const DimacsError e =
            errorOf("p cnf 1 1\n1 0\np cnf 1 1\n");
        EXPECT_EQ(3u, e.line);
        EXPECT_EQ(1u, e.column);
        EXPECT_NE(std::string::npos, e.message.find("duplicate"));
    }
    {
        const DimacsError e = errorOf("p cnf 99999999999 1\n1 0\n");
        EXPECT_EQ(1u, e.line);
        EXPECT_EQ(7u, e.column);
        EXPECT_NE(std::string::npos, e.message.find("too large"));
    }
    {
        // A non-numeric tail splits the token: the error points at
        // the junk character, not the digits before it.
        const DimacsError e = errorOf("p cnf 2 1\n1 2x 0\n");
        EXPECT_EQ(2u, e.line);
        EXPECT_EQ(4u, e.column);
        EXPECT_NE(std::string::npos, e.message.find("'x'"));
    }
    {
        const DimacsError e = errorOf("p cnf 2 1\n1 -0 0\n");
        EXPECT_EQ(2u, e.line);
        EXPECT_EQ(3u, e.column);
        EXPECT_NE(std::string::npos, e.message.find("'-0'"));
    }
    {
        const DimacsError e = errorOf("p cnf 2 2\n1 0\n");
        EXPECT_NE(std::string::npos,
                  e.message.find("declared 2 clauses, found 1"));
    }
    {
        const DimacsError e = errorOf("");
        EXPECT_EQ(1u, e.line);
        EXPECT_EQ(1u, e.column);
        EXPECT_NE(std::string::npos,
                  e.message.find("missing 'p cnf' header"));
    }
}

TEST(DimacsErrors, HeaderCapsRejectNonsenseSizes)
{
    // A header crafted to pass numeric parsing but exceed the
    // variable cap must fail on the cap, not allocate.
    const DimacsError e = errorOf("p cnf 536870913 1\n1 0\n");
    EXPECT_NE(std::string::npos, e.message.find("limit"));
}

// ------------------------------------------------------ reader extras

TEST(DimacsReader, SatlibTrailerEndsTheStream)
{
    std::istringstream in(
        "p cnf 1 1\n1 0\n%\nutter garbage that must be ignored\n");
    const DimacsResult result = readDimacs(in);
    ASSERT_TRUE(result.ok) << result.error.str();
    EXPECT_EQ(1, result.cnf.numVars());
    EXPECT_EQ(1u, result.cnf.numClauses());
}

TEST(DimacsReader, CommentsAllowedAnywhere)
{
    std::istringstream in("c leading\np cnf 2 2\nc between\n"
                          "1 2 0\n-1\nc mid-clause\n-2 0\nc tail\n");
    const DimacsResult result = readDimacs(in);
    ASSERT_TRUE(result.ok) << result.error.str();
    EXPECT_EQ(2u, result.cnf.numClauses());
}

TEST(DimacsReader, HeaderMayDeclareMoreVarsThanUsed)
{
    std::istringstream in("p cnf 10 1\n1 0\n");
    const DimacsResult result = readDimacs(in);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(10, result.cnf.numVars());
}

// ------------------------------------------------------------- writer

TEST(DimacsWriter, ByteFormatIsStable)
{
    Cnf cnf;
    cnf.addClause({~mkLit(0), mkLit(1)});
    cnf.addClause({mkLit(2)});
    EXPECT_EQ("p cnf 3 2\n-1 2 0\n3 0\n", writeDimacsString(cnf));
    EXPECT_EQ(cnf.toDimacs(), writeDimacsString(cnf));
}

TEST(DimacsWriter, CommentsComeFirst)
{
    Cnf cnf;
    cnf.addClause({mkLit(0)});
    const std::string text =
        writeDimacsString(cnf, {"one", "two words"});
    EXPECT_EQ("c one\nc two words\np cnf 1 1\n1 0\n", text);
    std::istringstream in(text);
    EXPECT_TRUE(readDimacs(in).ok);
}

/** Exit status and stderr of qbsat run with @p args. */
struct QbsatRun
{
    int exitCode = -1;
    std::string err;
};

QbsatRun
runQbsat(const std::string &args)
{
    const std::string cmd = "'" + std::string(QB_QBSAT_PATH) + "' " +
                            args + " 2>&1 >/dev/null";
    QbsatRun run;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return run;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr)
        run.err += buf;
    const int status = pclose(pipe);
    if (WIFEXITED(status))
        run.exitCode = WEXITSTATUS(status);
    return run;
}

TEST(QbsatCli, SimplifyFlagIsAUsageError)
{
    // The solver has one configuration, so the old --simplify preset
    // switch is gone: in either position it prints the usage and
    // exits 2 instead of solving.  The plain run is the control.
    const std::string file =
        "'" + (corpusDir("good") / "php3_2_unsat.cnf").string() + "'";
    EXPECT_EQ(20, runQbsat(file).exitCode);
    for (const std::string &args :
         {"--simplify " + file, file + " --simplify"}) {
        const QbsatRun run = runQbsat(args);
        EXPECT_EQ(2, run.exitCode) << args;
        EXPECT_EQ(0u, run.err.rfind("usage:", 0)) << args << ": "
                                                  << run.err;
    }
}

} // namespace
} // namespace qb::sat
