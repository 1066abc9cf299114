/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "coherence/directory.hh"
#include "coherence/protocol.hh"
#include "sim/event_queue.hh"
#include "sim/log.hh"

using namespace tsoper;

TEST(EventQueue, StartsEmptyAtCycleZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, ExecutesInCycleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameCycleTiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(4, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, ZeroDelayEventRunsAfterCurrentEvent)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(7, [&] {
        order.push_back(1);
        eq.scheduleIn(0, [&] { order.push_back(2); });
        order.push_back(3); // Still part of the first event.
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, RunStopsAtMaxCycle)
{
    EventQueue eq;
    bool late = false;
    eq.schedule(10, [] {});
    eq.schedule(100, [&] { late = true; });
    eq.run(50);
    EXPECT_FALSE(late);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_TRUE(late);
}

TEST(EventQueue, RunUntilPredicate)
{
    EventQueue eq;
    int count = 0;
    for (Cycle t = 1; t <= 100; ++t)
        eq.schedule(t, [&] { ++count; });
    eq.runUntil([&] { return count >= 10; });
    EXPECT_EQ(count, 10);
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [&] {
        EXPECT_THROW(eq.schedule(5, [] {}), std::logic_error);
    });
    eq.run();
}

TEST(EventQueue, ThrowingCallbackReleasesItsCapture)
{
    // A capture that counts its own destruction; a moved-from one does
    // not count.
    struct Counted
    {
        int *destroyed;
        bool live = true;
        explicit Counted(int *d) : destroyed(d) {}
        Counted(Counted &&o) noexcept : destroyed(o.destroyed), live(o.live)
        {
            o.live = false;
        }
        ~Counted()
        {
            if (live)
                ++*destroyed;
        }
    };
    int destroyed = 0;
    {
        // A panic inside an event leaves runOne(), yet the callback's
        // capture is destroyed and its slot freed for the next event.
        EventQueue eq;
        eq.schedule(1, [c = Counted(&destroyed)] {
            tsoper_panic("event fails");
        });
        eq.schedule(2, [c = Counted(&destroyed)] {});
        EXPECT_THROW(eq.runOne(), std::logic_error);
        EXPECT_EQ(destroyed, 1);
        EXPECT_EQ(eq.pending(), 1u);
        bool ran = false;
        eq.schedule(3, [&ran, c = Counted(&destroyed)] { ran = true; });
        eq.run();
        EXPECT_TRUE(ran);
        EXPECT_EQ(destroyed, 3);
    }
    destroyed = 0;
    {
        // Destroying a queue destroys what is still pending, in the
        // wheel and in the far heap alike.
        EventQueue eq;
        eq.schedule(5, [c = Counted(&destroyed)] {});
        eq.schedule(5, [c = Counted(&destroyed)] {});
        eq.schedule(10 * EventQueue::wheelSize, [c = Counted(&destroyed)] {});
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 3);
}

TEST(EventQueue, ExecutedCountsEvents)
{
    EventQueue eq;
    for (int i = 0; i < 25; ++i)
        eq.schedule(static_cast<Cycle>(i), [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 25u);
}

// --------------------------------------------------------------------
// Calendar-queue specifics: the bucket wheel, the far-future heap and
// the migration between them must preserve the (cycle, seq) order the
// whole simulation's determinism rests on.
// --------------------------------------------------------------------

TEST(EventQueue, TieOrderAcrossWheelWrapAndMigration)
{
    // One target cycle beyond the wheel horizon, fed from three
    // vantage points: scheduled while far (heap), scheduled while
    // still far after time advanced (heap, later seq), and scheduled
    // once the wheel has wrapped past the horizon and covers the
    // target (direct bucket append).  Execution must interleave them
    // purely by insertion sequence.
    EventQueue eq;
    const Cycle target = 3 * EventQueue::wheelSize + 7;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(target, [&order, i] { order.push_back(i); });
    eq.schedule(EventQueue::wheelSize / 2, [&] {
        for (int i = 5; i < 10; ++i)
            eq.schedule(target, [&order, i] { order.push_back(i); });
    });
    eq.schedule(target - 100, [&] {
        // Now the wheel window [target-100, target-100+wheelSize)
        // covers the target: these land in the bucket directly,
        // behind the migrated heap events.
        for (int i = 10; i < 15; ++i)
            eq.schedule(target, [&order, i] { order.push_back(i); });
    });
    eq.run();
    ASSERT_EQ(order.size(), 15u);
    for (int i = 0; i < 15; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i) << "pos " << i;
    EXPECT_EQ(eq.now(), target);
}

TEST(EventQueue, ZeroDelaySelfRescheduling)
{
    // A waiter that re-arms itself with scheduleIn(0) must run all its
    // turns at the same cycle, interleaved behind other same-cycle
    // arrivals in insertion order.
    EventQueue eq;
    std::vector<int> order;
    int turns = 0;
    struct Self
    {
        EventQueue *eq;
        std::vector<int> *order;
        int *turns;
        void
        operator()()
        {
            order->push_back(*turns);
            if (++*turns < 4)
                eq->scheduleIn(0, Self{*this});
        }
    };
    eq.schedule(9, Self{&eq, &order, &turns});
    eq.schedule(9, [&order] { order.push_back(100); });
    eq.run();
    // Turn 0 first, then the independent event (inserted second), then
    // the self-rescheduled turns appended after it.
    EXPECT_EQ(order, (std::vector<int>{0, 100, 1, 2, 3}));
    EXPECT_EQ(eq.now(), 9u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, FarFutureOverflowsIntoHeapAndReturns)
{
    // Events on both sides of the wheel horizon; the far side lives in
    // the heap until time approaches, and the whole set still executes
    // in cycle order with pending()/executed() consistent.
    EventQueue eq;
    std::vector<Cycle> fired;
    const std::vector<Cycle> whens = {
        EventQueue::wheelSize - 1,      // last in-wheel cycle
        EventQueue::wheelSize,          // first heap cycle
        EventQueue::wheelSize + 1,
        10 * EventQueue::wheelSize + 3, // deep future
        5,                              // near
        7 * EventQueue::wheelSize,
    };
    for (Cycle w : whens)
        eq.schedule(w, [&fired, &eq] { fired.push_back(eq.now()); });
    EXPECT_EQ(eq.pending(), whens.size());
    eq.run();
    std::vector<Cycle> sorted = whens;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(fired, sorted);
    EXPECT_EQ(eq.executed(), whens.size());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, RepeatedWheelWrapLongRun)
{
    // A chain whose period exceeds the wheel size forces a base
    // advance plus heap migration on every single event.
    EventQueue eq;
    const Cycle period = EventQueue::wheelSize + EventQueue::wheelSize / 2;
    int hops = 0;
    struct Hop
    {
        EventQueue *eq;
        int *hops;
        Cycle period;
        void
        operator()()
        {
            if (++*hops < 200)
                eq->scheduleIn(period, Hop{*this});
        }
    };
    eq.scheduleIn(period, Hop{&eq, &hops, period});
    eq.run();
    EXPECT_EQ(hops, 200);
    EXPECT_EQ(eq.now(), 200 * period);
}

TEST(EventQueue, DeterministicAcrossIdenticalRuns)
{
    // Same schedule twice -> identical execution order, cycle by
    // cycle.  This is the kernel-level form of the fixed-seed
    // --stats-json byte-identity the campaign relies on.
    auto trace = [] {
        EventQueue eq;
        std::vector<std::pair<Cycle, int>> log;
        std::uint64_t state = 42;
        for (int i = 0; i < 500; ++i) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            eq.schedule(state % (4 * EventQueue::wheelSize),
                        [&log, &eq, i] { log.emplace_back(eq.now(), i); });
        }
        eq.run();
        return log;
    };
    EXPECT_EQ(trace(), trace());
}

// The inline-callback contract: captures up to the documented
// capacity are storable, anything larger is rejected at compile time
// (the constructor static_asserts; canHold is the testable mirror of
// that condition).
struct FitsExactly
{
    std::array<std::byte, InlineCallback::capacity> pad;
    void operator()() {}
};

struct OneByteTooBig
{
    std::array<std::byte, InlineCallback::capacity + 1> pad;
    void operator()() {}
};

static_assert(InlineCallback::canHold<FitsExactly>,
              "a capture of exactly `capacity` bytes must be storable");
static_assert(!InlineCallback::canHold<OneByteTooBig>,
              "an oversized capture must be a compile error, not a "
              "silent heap allocation");

TEST(InlineFunction, CarriesArgumentsAndResultAndIsMoveOnly)
{
    using Fn = InlineFunction<int(int, int), 24>;
    static_assert(!std::is_copy_constructible_v<Fn>);
    static_assert(std::is_nothrow_move_constructible_v<Fn>);
    static_assert(sizeof(Fn) == 32, "capacity plus one ops pointer");
    // A move-only capture: std::function could not hold this at all.
    auto owned = std::make_unique<int>(10);
    Fn f = [p = std::move(owned)](int a, int b) { return *p + a * b; };
    Fn g = std::move(f);
    EXPECT_FALSE(f);
    ASSERT_TRUE(g);
    EXPECT_EQ(g(2, 3), 16);
}

TEST(EventQueue, LargestRealCaptureStillFits)
{
    // Shape of the biggest scheduling site in src/ (the protocols'
    // submitTxn): a request message carrying a directory-transaction
    // body, which in turn carries the store's completion.
    struct StoreBodyShape
    {
        void *self;
        CoreId core;
        bool holdsMshr;
        Addr addr;
        StoreId store;
        CoherenceProtocol::StoreDone done;
        std::optional<Cycle>
        operator()(Cycle t)
        {
            done(t);
            return t;
        }
    };
    struct RequestShape
    {
        void *self;
        LineAddr line;
        LineSerializer::Body body;
        void operator()() { body(0); }
    };
    static_assert(LineSerializer::Body::canHold<StoreBodyShape>);
    static_assert(InlineCallback::canHold<RequestShape>);
    static_assert(InlineCallback::capacity == 120);
    EventQueue eq;
    bool ran = false;
    RequestShape ev{&ran, 0,
                    StoreBodyShape{&ran, 0, false, 0, 0,
                                   [&ran](Cycle) { ran = true; }}};
    eq.schedule(3, std::move(ev));
    eq.run();
    EXPECT_TRUE(ran);
}
