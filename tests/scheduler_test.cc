/**
 * @file
 * Tests for the persistent scheduler and the engine's use of it: pool
 * mechanics, determinism of verdicts AND counterexamples across jobs
 * counts, batch pipelining, and the no-thread-per-condition
 * guarantee.  The stress tests double as the ASan/TSan exercise in
 * CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "circuits/adders.h"
#include "circuits/qbr_text.h"
#include "core/engine.h"
#include "core/reference.h"
#include "core/scheduler.h"
#include "lang/elaborate.h"
#include "support/rng.h"

namespace qb::core {
namespace {

using ir::Circuit;
using ir::Gate;

TEST(Scheduler, RunsEverySubmittedTask)
{
    std::atomic<int> done{0};
    {
        Scheduler pool(3);
        EXPECT_EQ(3u, pool.workers());
        for (int i = 0; i < 64; ++i)
            pool.submit([&done] { ++done; });
    } // destructor drains and joins
    EXPECT_EQ(64, done.load());
}

TEST(Scheduler, ZeroJobsMeansHardwareSized)
{
    Scheduler pool(0);
    EXPECT_GE(pool.workers(), 1u);
}

TEST(Scheduler, BandsInterleaveRoundRobin)
{
    // Two fairness bands on ONE worker: the pool must serve them
    // round-robin (FIFO within a band), so a band with a deep backlog
    // cannot starve the other - the server-mode guarantee that one
    // program's queued queries cannot block another program's first.
    std::vector<int> order;
    {
        Scheduler pool(1);
        std::mutex mutex;
        std::condition_variable released;
        bool go = false;
        // Gate the single worker so both bands fill while it is busy.
        pool.submit([&] {
            std::unique_lock<std::mutex> lock(mutex);
            released.wait(lock, [&] { return go; });
        });
        for (int i = 0; i < 3; ++i)
            pool.submit(1u, [&order, i] { order.push_back(100 + i); });
        for (int i = 0; i < 3; ++i)
            pool.submit(2u, [&order, i] { order.push_back(200 + i); });
        {
            const std::lock_guard<std::mutex> guard(mutex);
            go = true;
        }
        released.notify_all();
    } // destructor drains
    const std::vector<int> expected{100, 200, 101, 201, 102, 202};
    EXPECT_EQ(expected, order);
}

TEST(Scheduler, BandBacklogReportsQueuedWork)
{
    std::mutex mutex;
    std::condition_variable released;
    std::atomic<bool> gate_running{false};
    bool go = false;
    {
        Scheduler pool(1);
        // Gate the single worker so the bands fill behind it - and
        // WAIT until it is actually inside the gate task, or it
        // would drain some band work first.
        pool.submit([&] {
            gate_running.store(true);
            std::unique_lock<std::mutex> lock(mutex);
            released.wait(lock, [&] { return go; });
        });
        while (!gate_running.load())
            std::this_thread::yield();
        for (int i = 0; i < 3; ++i)
            pool.submit(5u, [] {});
        for (int i = 0; i < 2; ++i)
            pool.submit(9u, [] {});
        const auto backlog = pool.bandBacklog();
        ASSERT_EQ(2u, backlog.size());
        EXPECT_EQ(5u, backlog[0].first);
        EXPECT_EQ(3u, backlog[0].second);
        EXPECT_EQ(9u, backlog[1].first);
        EXPECT_EQ(2u, backlog[1].second);
        {
            const std::lock_guard<std::mutex> guard(mutex);
            go = true;
        }
        released.notify_all();
    } // destructor drains
}

/** Random reversible circuit generator (mirrors engine_test). */
Circuit
randomCircuit(Rng &rng, std::uint32_t n, int gates)
{
    Circuit c(n);
    for (int g = 0; g < gates; ++g) {
        const auto kind = rng.nextBelow(3);
        auto a = static_cast<ir::QubitId>(rng.nextBelow(n));
        auto b = static_cast<ir::QubitId>(rng.nextBelow(n));
        auto t = static_cast<ir::QubitId>(rng.nextBelow(n));
        while (b == a)
            b = static_cast<ir::QubitId>(rng.nextBelow(n));
        while (t == a || t == b)
            t = static_cast<ir::QubitId>(rng.nextBelow(n));
        if (kind == 0)
            c.append(Gate::x(a));
        else if (kind == 1)
            c.append(Gate::cnot(a, t));
        else
            c.append(Gate::ccnot(a, b, t));
    }
    return c;
}

class JobsDeterminism : public ::testing::TestWithParam<int>
{};

/** --jobs 1 and --jobs N must agree exactly on @p c, on lane A and
 *  on lane B. */
void
expectJobsDeterminism(const Circuit &c)
{
    for (const std::string lane : {"A", "B"}) {
        EngineOptions serial = EngineOptions::singleLane(
            lane == "A" ? VerifierOptions::laneA()
                        : VerifierOptions::laneB());
        EngineOptions parallel = serial;
        serial.jobs = 1;
        parallel.jobs = 4;
        VerificationEngine one(c, serial);
        VerificationEngine many(c, parallel);
        const ProgramResult r1 = one.verifyAllQubits();
        const ProgramResult rn = many.verifyAllQubits();
        ASSERT_EQ(r1.qubits.size(), rn.qubits.size());
        for (std::size_t i = 0; i < r1.qubits.size(); ++i) {
            EXPECT_EQ(r1.qubits[i].verdict, rn.qubits[i].verdict)
                << "qubit " << i << " lane " << lane;
            EXPECT_EQ(r1.qubits[i].failed, rn.qubits[i].failed)
                << "qubit " << i << " lane " << lane;
            EXPECT_EQ(r1.qubits[i].counterexample,
                      rn.qubits[i].counterexample)
                << "qubit " << i << " lane " << lane;
        }
        // Only collected outcomes are counted, so the solver totals
        // do not depend on whether a speculative (6.2) query ran
        // before an Unsafe (6.1) answer abandoned it.
        const sat::SolverStats &s1 = r1.solverTotals;
        const sat::SolverStats &sn = rn.solverTotals;
        EXPECT_EQ(s1.conflicts, sn.conflicts) << "lane " << lane;
        EXPECT_EQ(s1.decisions, sn.decisions) << "lane " << lane;
        EXPECT_EQ(s1.propagations, sn.propagations) << "lane " << lane;
        EXPECT_EQ(s1.binPropagations, sn.binPropagations)
            << "lane " << lane;
    }
}

TEST_P(JobsDeterminism, OneAndManyJobsIdenticalVerdictsAndCex)
{
    // The acceptance contract of the scheduler: --jobs 1 and --jobs N
    // produce identical verdicts AND identical counterexamples, on
    // both lanes.  (Counterexamples come from the deterministic
    // solver that decided the condition, so worker timing cannot leak
    // in.)
    Rng rng(GetParam() + 77000);
    expectJobsDeterminism(randomCircuit(rng, 6, 14));
}

TEST_P(JobsDeterminism, BinaryHeavyCircuitsStayDeterministic)
{
    // X/CNOT-only circuits elaborate to XOR-shaped conditions whose
    // Tseitin encodings are dominated by short clauses: the formulas
    // that stress the specialized binary watchers.  The determinism
    // contract must hold there too, on both lanes.
    Rng rng(GetParam() + 88000);
    const std::uint32_t n = 6;
    Circuit c(n);
    for (int g = 0; g < 18; ++g) {
        const auto a = static_cast<ir::QubitId>(rng.nextBelow(n));
        auto t = static_cast<ir::QubitId>(rng.nextBelow(n));
        while (t == a)
            t = static_cast<ir::QubitId>(rng.nextBelow(n));
        if (rng.nextBelow(4) == 0)
            c.append(Gate::x(t));
        else
            c.append(Gate::cnot(a, t));
    }
    expectJobsDeterminism(c);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JobsDeterminism,
                         ::testing::Range(0, 10));

TEST(SchedulerEngine, StressManyQubitsOnEachLane)
{
    // The deterministic verifyAll stress: many qubits, a shared
    // 4-worker pool, speculative (6.2) queries and cross-qubit
    // pipelining all at once - on lane A's and on lane B's preset.
    // CI runs this under ASan and TSan.
    const auto program =
        lang::elaborateSource(circuits::adderQbrSource(12));
    // Same verdicts as the sequential one-shot reference.
    const ProgramResult reference = verifyProgram(program);
    for (const std::string lane : {"A", "B"}) {
        EngineOptions options = EngineOptions::singleLane(
            lane == "A" ? VerifierOptions::laneA()
                        : VerifierOptions::laneB());
        options.jobs = 4;
        const ProgramResult result = verifyAll(program, options);
        ASSERT_EQ(11u, result.qubits.size());
        for (const QubitResult &r : result.qubits)
            EXPECT_EQ(Verdict::Safe, r.verdict)
                << "lane " << lane << " " << r.name;
        ASSERT_EQ(reference.qubits.size(), result.qubits.size());
        for (std::size_t i = 0; i < result.qubits.size(); ++i)
            EXPECT_EQ(reference.qubits[i].verdict,
                      result.qubits[i].verdict);
    }
}

TEST(SchedulerEngine, StressRandomCircuitsAgreeWithBruteForce)
{
    Rng rng(4242);
    for (int round = 0; round < 4; ++round) {
        const Circuit c = randomCircuit(rng, 7, 16);
        for (const std::string lane : {"A", "B"}) {
            EngineOptions options = EngineOptions::singleLane(
                lane == "A" ? VerifierOptions::laneA()
                            : VerifierOptions::laneB());
            options.jobs = 3;
            VerificationEngine engine(c, options);
            const ProgramResult result = engine.verifyAllQubits();
            for (ir::QubitId q = 0; q < c.numQubits(); ++q) {
                EXPECT_EQ(bruteForceVerdict(c, q),
                          result.qubits[q].verdict)
                    << "round " << round << " lane " << lane
                    << " qubit " << q;
            }
        }
    }
}

/** Current thread count of this process, 0 if unknowable. */
std::size_t
threadCount()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return static_cast<std::size_t>(
                std::stoul(line.substr(8)));
    }
    return 0;
}

TEST(SchedulerEngine, NoThreadPerCondition)
{
    const std::size_t before = threadCount();
    if (before == 0)
        GTEST_SKIP() << "/proc/self/status not available";
    // 11 qubits x 2 conditions = 22 condition solves, each an
    // unordered scratch task on the default lane; a thread per
    // condition would show up here.  The pool bound must hold at
    // every observation point.
    const auto program =
        lang::elaborateSource(circuits::adderQbrSource(12));
    EngineOptions options;
    options.jobs = 2;
    std::size_t peak = 0;
    verifyAll(program, options, [&peak](const QubitResult &) {
        peak = std::max(peak, threadCount());
    });
    EXPECT_GT(peak, 0u);
    // jobs workers, plus one for a sanitizer's background thread
    // (TSan spawns one lazily).  22 per-condition threads would blow
    // straight through this.
    EXPECT_LE(peak, before + 2 + 1);
}

TEST(SchedulerEngine, SessionsShareOnePoolAcrossLifetimes)
{
    // Two disjoint borrow lifetimes = two sessions; the free verifyAll
    // must still bound threads by jobs, not jobs x sessions.
    const std::size_t before = threadCount();
    if (before == 0)
        GTEST_SKIP() << "/proc/self/status not available";
    const auto program = lang::elaborateSource(R"(
        borrow@ q[4];
        borrow a;
        CCNOT[q[1], q[2], a];
        CCNOT[a, q[3], q[4]];
        CCNOT[q[1], q[2], a];
        CCNOT[a, q[3], q[4]];
        release a;
        borrow b;
        CCNOT[q[1], q[3], b];
        CCNOT[b, q[2], q[4]];
        CCNOT[q[1], q[3], b];
        CCNOT[b, q[2], q[4]];
        release b;
    )");
    EngineOptions options;
    options.jobs = 2;
    std::size_t peak = 0;
    const ProgramResult result =
        verifyAll(program, options, [&peak](const QubitResult &) {
            peak = std::max(peak, threadCount());
        });
    ASSERT_EQ(2u, result.qubits.size());
    EXPECT_EQ(Verdict::Safe, result.qubits[0].verdict);
    EXPECT_EQ(Verdict::Safe, result.qubits[1].verdict);
    // jobs workers + sanitizer slack; NOT jobs x sessions.
    EXPECT_LE(peak, before + 2 + 1);
}

} // namespace
} // namespace qb::core
