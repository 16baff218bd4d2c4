/**
 * @file
 * Tests for the differential fuzz harness (support/fuzz.h):
 *
 *  - determinism: the same seed yields a byte-identical corpus and
 *    identical verdict tallies no matter how many worker threads run
 *    the campaign;
 *  - a clean campaign over all three case families (qbr engine vs
 *    brute force, CNF elimination-on/off differential, analysis-on/off
 *    differential) finds zero disagreements (the acceptance property
 *    CI re-runs at scale);
 *  - the harness self-test: an INTENTIONALLY injected solver bug
 *    (one clause dropped from the eliminating solver) is caught,
 *    delta-debugged to a minimal reproducer, and written to disk;
 *  - the shrinking primitives in isolation.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/verifier.h"
#include "sat/dimacs.h"
#include "sat/solver.h"
#include "support/fuzz.h"

namespace qb::fuzz {
namespace {

/** Small campaign sized for test time; brute force stays cheap. */
FuzzOptions
smallCampaign(std::uint64_t seed)
{
    FuzzOptions options;
    options.seed = seed;
    options.qbrCases = 12;
    options.cnfCases = 30;
    options.analysisCases = 8;
    options.bruteForceMaxVars = 10;
    options.cnf.maxVars = 12;
    return options;
}

TEST(FuzzDeterminism, SameSeedSameReportAcrossJobs)
{
    FuzzOptions serial = smallCampaign(20260808);
    serial.jobs = 1;
    FuzzOptions threaded = serial;
    threaded.jobs = 4;
    const FuzzReport a = runFuzz(serial);
    const FuzzReport b = runFuzz(threaded);
    EXPECT_EQ(a.corpusDigest, b.corpusDigest)
        << "corpus must be byte-identical across --jobs";
    EXPECT_EQ(a.satVerdicts, b.satVerdicts);
    EXPECT_EQ(a.unsatVerdicts, b.unsatVerdicts);
    EXPECT_EQ(a.safeQubits, b.safeQubits);
    EXPECT_EQ(a.unsafeQubits, b.unsafeQubits);
    EXPECT_EQ(a.disagreements.size(), b.disagreements.size());
    EXPECT_TRUE(a.ok());
}

TEST(FuzzDeterminism, DifferentSeedsProduceDifferentCorpora)
{
    const FuzzReport a = runFuzz(smallCampaign(1));
    const FuzzReport b = runFuzz(smallCampaign(2));
    EXPECT_NE(a.corpusDigest, b.corpusDigest);
}

TEST(FuzzCampaign, CleanRunFindsNoDisagreements)
{
    FuzzOptions options = smallCampaign(7);
    options.qbrCases = 16;
    options.cnfCases = 40;
    options.jobs = 2;
    const FuzzReport report = runFuzz(options);
    EXPECT_TRUE(report.ok());
    for (const Disagreement &d : report.disagreements)
        ADD_FAILURE() << caseKindName(d.kind) << " case " << d.index
                      << ": " << d.detail << "\n"
                      << d.artifact;
    // The corpus straddles the phase transition: both verdicts occur.
    EXPECT_EQ(options.cnfCases,
              report.satVerdicts + report.unsatVerdicts);
    EXPECT_GT(report.satVerdicts, 0u);
    EXPECT_GT(report.unsatVerdicts, 0u);
    // And the qbr side saw both safe and unsafe qubits.
    EXPECT_GT(report.safeQubits + report.unsafeQubits, 0u);
}

TEST(FuzzCampaign, AnalysisLaneRunsCleanAndCountsQubits)
{
    // The analysis-on/off differential lane alone: a linear-heavy
    // corpus where the GF(2)-affine discharger genuinely fires, so a
    // clean run is evidence the dischargers never flip a verdict.
    FuzzOptions options = smallCampaign(11);
    options.qbrCases = 0;
    options.cnfCases = 0;
    options.analysisCases = 24;
    options.jobs = 2;
    const FuzzReport report = runFuzz(options);
    EXPECT_TRUE(report.ok());
    for (const Disagreement &d : report.disagreements)
        ADD_FAILURE() << caseKindName(d.kind) << " case " << d.index
                      << ": " << d.detail << "\n"
                      << d.artifact;
    EXPECT_EQ(24u, report.analysisCases);
    // Every case has at least the one borrowed qubit to verify.
    EXPECT_GE(report.safeQubits + report.unsafeQubits, 24u);
}

TEST(FuzzCampaign, InjectedBugIsCaughtShrunkAndWritten)
{
    // The acceptance self-test: sabotage the eliminating solver and
    // demand the harness notices.  With one clause dropped from it
    // in every CNF case, a campaign this size MUST
    // disagree somewhere (an UNSAT case turning SAT, or a weakened
    // model violating the dropped clause).
    FuzzOptions options = smallCampaign(20260808);
    options.qbrCases = 0;
    options.cnfCases = 60;
    options.analysisCases = 0;
    options.injectCnfBug = true;
    options.maxDisagreements = 2;
    options.reproducerDir = ::testing::TempDir();
    const FuzzReport report = runFuzz(options);
    ASSERT_FALSE(report.ok())
        << "a sabotaged solver lane must be caught";
    const Disagreement &d = report.disagreements.front();
    EXPECT_EQ(CaseKind::Cnf, d.kind);
    EXPECT_FALSE(d.detail.empty());

    // The shrunk artifact is valid DIMACS.
    std::istringstream in(d.artifact);
    const sat::DimacsResult parsed = sat::readDimacs(in);
    ASSERT_TRUE(parsed.ok) << parsed.error.str();
    EXPECT_GT(parsed.cnf.numClauses(), 0u);

    // The reproducer file exists and holds exactly the artifact.
    ASSERT_FALSE(d.reproducerPath.empty());
    EXPECT_TRUE(std::filesystem::exists(d.reproducerPath));
    std::ifstream file(d.reproducerPath, std::ios::binary);
    std::ostringstream bytes;
    bytes << file.rdbuf();
    EXPECT_EQ(d.artifact, bytes.str());

    // Without the injection the same seeds are clean: the harness
    // flags the sabotage, not some latent real bug.
    FuzzOptions clean = options;
    clean.injectCnfBug = false;
    clean.reproducerDir.clear();
    EXPECT_TRUE(runFuzz(clean).ok());
}

// ------------------------------------------------------------ shrinking

TEST(ShrinkCnf, ReducesToTheUnsatCore)
{
    // Two contradictory units buried under noise; "fails" = UNSAT.
    // ddmin + literal stripping must strip the noise completely and
    // variable renumbering must leave a 1-variable formula.
    sat::Cnf cnf;
    cnf.addClause({sat::mkLit(3)});
    cnf.addClause({~sat::mkLit(3)});
    Rng rng(42);
    CnfKnobs noise;
    noise.minVars = 8;
    noise.maxVars = 8;
    noise.clauseVarRatio = 2.0;
    const sat::Cnf extra = generateCnf(rng, noise);
    for (const sat::LitVec &c : extra.clauses())
        cnf.addClause(c);
    const auto is_unsat = [](const sat::Cnf &candidate) {
        return sat::solveCnf(candidate) == sat::SolveResult::Unsat;
    };
    ASSERT_TRUE(is_unsat(cnf));
    const sat::Cnf shrunk = shrinkCnf(cnf, is_unsat);
    EXPECT_TRUE(is_unsat(shrunk));
    EXPECT_EQ(2u, shrunk.numClauses());
    for (const sat::LitVec &c : shrunk.clauses())
        EXPECT_EQ(1u, c.size());
    EXPECT_EQ(1, shrunk.numVars())
        << "unused variables must be renumbered away";
}

TEST(ShrinkCnf, ExceptionsInThePredicateCountAsPass)
{
    sat::Cnf cnf;
    cnf.addClause({sat::mkLit(0)});
    cnf.addClause({~sat::mkLit(0)});
    int calls = 0;
    const sat::Cnf shrunk =
        shrinkCnf(cnf, [&calls](const sat::Cnf &candidate) -> bool {
            ++calls;
            if (candidate.numClauses() < 2)
                throw std::runtime_error("boom");
            return true;
        });
    EXPECT_GT(calls, 0);
    EXPECT_EQ(2u, shrunk.numClauses());
}

TEST(ShrinkQbr, DropsIrrelevantLines)
{
    // An unsafe borrow (bare X on the borrowed wire) surrounded by
    // noise gates; "fails" = some qubit verifies Unsafe.  Line-level
    // ddmin must drop the noise while keeping the program elaborable
    // (removing borrow/release breaks elaboration, and the predicate
    // treats that as "does not fail" via verifySource throwing).
    const std::string failing = "borrow@ q[3];\n"
                                "X[q[1]];\n"
                                "CNOT[q[1], q[2]];\n"
                                "borrow a;\n"
                                "X[a];\n"
                                "release a;\n"
                                "CCNOT[q[1], q[2], q[3]];\n";
    const auto is_unsafe = [](const std::string &src) {
        const core::ProgramResult result = core::verifySource(src);
        for (const core::QubitResult &r : result.qubits)
            if (r.verdict == core::Verdict::Unsafe)
                return true;
        return false;
    };
    ASSERT_TRUE(is_unsafe(failing));
    const std::string shrunk = shrinkQbr(failing, is_unsafe);
    EXPECT_TRUE(is_unsafe(shrunk));
    EXPECT_NE(std::string::npos, shrunk.find("X[a];"));
    // All three noise gate lines must be gone.
    EXPECT_EQ(std::string::npos, shrunk.find("CNOT[q[1], q[2]];"));
    EXPECT_EQ(std::string::npos, shrunk.find("CCNOT"));
    EXPECT_EQ(std::string::npos, shrunk.find("X[q[1]];"));
}

} // namespace
} // namespace qb::fuzz
