/**
 * @file
 * Google-benchmark registration of the event-kernel micro patterns
 * (bench/kernel_patterns.hh): events/sec for the schedule-heavy,
 * zero-delay-heavy and mixed-latency mixes.  tools/tsoper_bench runs
 * the same patterns with its own wall-clock timer and emits
 * BENCH_kernel.json; this binary is for interactive profiling (build
 * with -pg and read gprof, e.g. --benchmark_filter=Mixed).
 */

#include <benchmark/benchmark.h>

#include "kernel_patterns.hh"

namespace
{

constexpr std::uint64_t eventsPerIter = 200'000;

void
BM_KernelScheduleHeavy(benchmark::State &state)
{
    std::uint64_t executed = 0;
    for (auto _ : state)
        executed += tsoper::bench::patternScheduleHeavy(eventsPerIter);
    state.SetItemsProcessed(static_cast<std::int64_t>(executed));
}

void
BM_KernelZeroDelayHeavy(benchmark::State &state)
{
    std::uint64_t executed = 0;
    for (auto _ : state)
        executed += tsoper::bench::patternZeroDelayHeavy(eventsPerIter);
    state.SetItemsProcessed(static_cast<std::int64_t>(executed));
}

void
BM_KernelMixedLatency(benchmark::State &state)
{
    std::uint64_t executed = 0;
    for (auto _ : state)
        executed += tsoper::bench::patternMixedLatency(eventsPerIter);
    state.SetItemsProcessed(static_cast<std::int64_t>(executed));
}

BENCHMARK(BM_KernelScheduleHeavy);
BENCHMARK(BM_KernelZeroDelayHeavy);
BENCHMARK(BM_KernelMixedLatency);

} // namespace

BENCHMARK_MAIN();
