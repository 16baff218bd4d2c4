/**
 * @file
 * Serving-tier cache benchmark: what a repeat client actually pays at
 * each level of the cache hierarchy, on the MCX family.
 *
 * Three variants serve the same program N times through one
 * ServingTier over one process-wide scheduler:
 *
 *   - ServeCold: both caches disabled - every request pays parse,
 *     elaboration, session construction and every SAT query (a
 *     daemon without caches, minus socket I/O);
 *   - ServeProgramHit: program cache on, result cache off - repeats
 *     skip parsing and elaboration, then verify the cached program
 *     in fresh sessions;
 *   - ServeResultHit: both caches on - repeats replay the memoized
 *     verdict and never touch the pool.
 *
 * The interesting counters are serve_s (mean per-request wall time
 * across the repeats) and the tier's hit totals, which the stats
 * op exposes the same way in the live daemon.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "circuits/qbr_text.h"
#include "core/engine.h"
#include "core/scheduler.h"
#include "serving/serving.h"

namespace {

void
runServe(benchmark::State &state, std::size_t program_capacity,
         std::size_t result_capacity)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const std::uint32_t m = (n + 1) / 2;
    const std::string source = qb::circuits::mcxQbrSource(m);
    // The default lane, as the daemon runs it.
    qb::core::EngineOptions options;
    options.lane.wantCounterexample = false;
    const std::string key =
        qb::serving::ServingTier::optionsFingerprint(options, false);

    constexpr int kRepeats = 8;
    for (auto _ : state) {
        // Fresh tier and pool per iteration: the first request is the
        // cold miss, the other kRepeats-1 hit whatever this variant
        // caches.
        const auto scheduler =
            std::make_shared<qb::core::Scheduler>(0);
        qb::serving::ServingTier tier(
            {program_capacity, result_capacity});
        for (int r = 0; r < kRepeats; ++r) {
            const auto outcome =
                tier.verify(source, options, false, key, nullptr,
                            scheduler, nullptr);
            if (outcome.failed || !outcome.result.allSafe()) {
                state.SkipWithError("mcx verification failed");
                break;
            }
        }
        state.counters["result_hits"] = static_cast<double>(
            tier.resultCounters().hits);
        state.counters["program_hits"] = static_cast<double>(
            tier.programCounters().hits);
        state.counters["serve_s"] =
            benchmark::Counter(kRepeats,
                               benchmark::Counter::kIsIterationInvariantRate |
                                   benchmark::Counter::kInvert);
    }
    state.counters["controls"] = n;
}

void
ServeCold(benchmark::State &state)
{
    runServe(state, 0, 0);
}

void
ServeProgramHit(benchmark::State &state)
{
    runServe(state, 64, 0);
}

void
ServeResultHit(benchmark::State &state)
{
    runServe(state, 64, 256);
}

} // namespace

BENCHMARK(ServeCold)
    ->Arg(199)
    ->Arg(499)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(ServeProgramHit)
    ->Arg(199)
    ->Arg(499)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
BENCHMARK(ServeResultHit)
    ->Arg(199)
    ->Arg(499)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);
