/**
 * @file
 * Synthetic event-kernel workloads for tools/tsoper_bench.cc, the
 * wall-clock driver that emits BENCH_kernel.json.
 *
 * Each pattern drives a fresh EventQueue through a deterministic
 * schedule shaped like one of the simulator's real event mixes and
 * returns the number of events executed, so callers can report
 * events/sec.  The capture sizes are chosen to match the hot call
 * sites: protocol events carry a (this, line, payload) tuple and the
 * NVM path additionally carries a full cacheline of words.
 */

#ifndef TSOPER_BENCH_KERNEL_PATTERNS_HH
#define TSOPER_BENCH_KERNEL_PATTERNS_HH

#include <array>
#include <cstdint>

#include "sim/event_queue.hh"

namespace tsoper::bench
{

/** Deterministic 64-bit mixer (splitmix64); no global RNG state. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * schedule-heavy: @p chains independent self-rescheduling activities
 * (cores retiring, NoC hops) with small pseudo-random latencies in
 * [1, 64], the dominant deltas in a full-system run.
 */
inline std::uint64_t
patternScheduleHeavy(std::uint64_t events, unsigned chains = 64)
{
    EventQueue eq;
    std::uint64_t remaining = events;
    struct Chain
    {
        EventQueue *eq;
        std::uint64_t *remaining;
        std::uint64_t state;
        void
        operator()()
        {
            if (*remaining == 0)
                return;
            --*remaining;
            state = mix64(state);
            eq->scheduleIn(1 + (state & 63), Chain{*this});
        }
    };
    for (unsigned c = 0; c < chains; ++c)
        eq.scheduleIn(1 + c % 7, Chain{&eq, &remaining, mix64(c + 1)});
    eq.run();
    return eq.executed();
}

/**
 * zero-delay-heavy: waiter wakeups and retry continuations
 * (slc.cc zombie/node waiters, engine retries) — long runs of
 * scheduleIn(0) interleaved with an occasional timed event.
 */
inline std::uint64_t
patternZeroDelayHeavy(std::uint64_t events)
{
    EventQueue eq;
    std::uint64_t remaining = events;
    struct Waiter
    {
        EventQueue *eq;
        std::uint64_t *remaining;
        std::uint64_t state;
        void
        operator()()
        {
            if (*remaining == 0)
                return;
            --*remaining;
            state = mix64(state);
            // 15/16 continuations are same-cycle wakeups.
            eq->scheduleIn((state & 15) == 0 ? 1 + (state >> 8) % 32 : 0,
                           Waiter{*this});
        }
    };
    for (unsigned c = 0; c < 8; ++c)
        eq.scheduleIn(0, Waiter{&eq, &remaining, mix64(c + 101)});
    eq.run();
    return eq.executed();
}

/**
 * mixed-latency: the full-system blend — zero-delay continuations,
 * small coherence latencies, medium NoC/LLC trips, and far-future NVM
 * completions carrying a 64-byte payload (as Nvm::write does).
 */
inline std::uint64_t
patternMixedLatency(std::uint64_t events, unsigned chains = 32)
{
    EventQueue eq;
    std::uint64_t remaining = events;
    struct Actor
    {
        EventQueue *eq;
        std::uint64_t *remaining;
        std::uint64_t state;
        std::array<std::uint64_t, 8> words; // NVM-writeback payload.
        void
        operator()()
        {
            if (*remaining == 0)
                return;
            --*remaining;
            state = mix64(state ^ words[state & 7]);
            words[state & 7] = state;
            const unsigned kind = state % 100;
            Cycle delta;
            if (kind < 25)
                delta = 0; // waiter wakeup
            else if (kind < 70)
                delta = 1 + (state >> 8) % 16; // L1/SLC hop
            else if (kind < 95)
                delta = 40 + (state >> 8) % 200; // NoC + LLC trip
            else
                delta = 2000 + (state >> 8) % 4000; // NVM completion
            eq->scheduleIn(delta, Actor{*this});
        }
    };
    for (unsigned c = 0; c < chains; ++c) {
        Actor a{&eq, &remaining, mix64(c + 1001), {}};
        eq.scheduleIn(c % 11, std::move(a));
    }
    eq.run();
    return eq.executed();
}

} // namespace tsoper::bench

#endif // TSOPER_BENCH_KERNEL_PATTERNS_HH
