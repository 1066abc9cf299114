/**
 * @file
 * Directory-layer tests: the per-line transaction serializer, finite
 * directory capacity with entry teardown, and the §III-B directory
 * eviction path (zombie entries draining through the eviction buffer).
 */

#include <gtest/gtest.h>

#include "coherence/directory.hh"
#include "core/crash_checker.hh"
#include "core/system.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "workload/generators.hh"

using namespace tsoper;

namespace
{

/** Directory storage with a plain int standing in for an entry. */
using Dir = DirectoryCapacity<int>;

} // namespace

TEST(LineSerializer, SingleBodyRunsImmediately)
{
    EventQueue eq;
    LineSerializer ser(eq);
    bool ran = false;
    eq.schedule(5, [&] {
        ser.submit(1, [&](Cycle t) {
            ran = true;
            EXPECT_EQ(t, 5u);
            return t + 10;
        });
    });
    eq.run();
    EXPECT_TRUE(ran);
}

TEST(LineSerializer, SameLineBodiesSerialize)
{
    EventQueue eq;
    LineSerializer ser(eq);
    std::vector<Cycle> starts;
    eq.schedule(0, [&] {
        for (int i = 0; i < 3; ++i) {
            ser.submit(7, [&](Cycle t) {
                starts.push_back(t);
                return t + 10;
            });
        }
    });
    eq.run();
    ASSERT_EQ(starts.size(), 3u);
    EXPECT_EQ(starts[0], 0u);
    EXPECT_EQ(starts[1], 10u);
    EXPECT_EQ(starts[2], 20u);
}

TEST(LineSerializer, DifferentLinesRunConcurrently)
{
    EventQueue eq;
    LineSerializer ser(eq);
    std::vector<Cycle> starts;
    eq.schedule(0, [&] {
        for (LineAddr l = 0; l < 3; ++l) {
            ser.submit(l, [&](Cycle t) {
                starts.push_back(t);
                return t + 100;
            });
        }
    });
    eq.run();
    ASSERT_EQ(starts.size(), 3u);
    for (Cycle s : starts)
        EXPECT_EQ(s, 0u);
}

TEST(LineSerializer, BusyReflectsInFlightTransaction)
{
    EventQueue eq;
    LineSerializer ser(eq);
    eq.schedule(0, [&] {
        ser.submit(3, [&](Cycle t) { return t + 50; });
        EXPECT_TRUE(ser.busy(3));
        EXPECT_FALSE(ser.busy(4));
    });
    eq.run();
    EXPECT_FALSE(ser.busy(3));
}

TEST(LineSerializer, BodyMaySubmitToSameLine)
{
    EventQueue eq;
    LineSerializer ser(eq);
    int order = 0;
    eq.schedule(0, [&] {
        ser.submit(9, [&](Cycle t) {
            EXPECT_EQ(order++, 0);
            ser.submit(9, [&order, t](Cycle t2) {
                EXPECT_EQ(order++, 1);
                EXPECT_GE(t2, t + 5);
                return t2;
            });
            return t + 5;
        });
    });
    eq.run();
    EXPECT_EQ(order, 2);
}

TEST(DirectoryCapacity, AllocatesWithoutEvictionUnderCapacity)
{
    StatsRegistry stats;
    Dir cap(64, 8, 16, stats);
    for (LineAddr l = 0; l < 100; ++l)
        EXPECT_FALSE(cap.allocate(l).evicted) << l;
    EXPECT_EQ(stats.get("dir.evictions"), 0u);
}

TEST(DirectoryCapacity, EvictsWhenSetFull)
{
    StatsRegistry stats;
    // 8 entries/bank, 8 banks -> one set of 8 ways per bank.
    Dir cap(8, 8, 16, stats);
    // Same bank (low bits 0), distinct tags.
    for (LineAddr l = 0; l < 9 * 8; l += 8)
        cap.allocate(l);
    EXPECT_GT(stats.get("dir.evictions"), 0u);
}

TEST(DirectoryCapacity, ReleaseFreesTheWay)
{
    StatsRegistry stats;
    Dir cap(8, 8, 16, stats);
    for (LineAddr l = 0; l < 8 * 8; l += 8)
        cap.allocate(l);
    cap.release(0);
    EXPECT_FALSE(cap.allocate(512).evicted); // Reuses the freed way.
}

TEST(DirectoryCapacity, EvictBufferBookkeeping)
{
    StatsRegistry stats;
    Dir cap(64, 8, 4, stats);
    cap.evictBufferEnter(1, 0);
    cap.evictBufferEnter(2, 0);
    EXPECT_TRUE(cap.inEvictBuffer(1));
    EXPECT_EQ(cap.evictBufferOccupancy(), 2u);
    cap.evictBufferLeave(1);
    EXPECT_FALSE(cap.inEvictBuffer(1));
    EXPECT_EQ(cap.evictBufferOccupancy(), 1u);
    EXPECT_GT(stats.histogram("dir.evict_buffer_occupancy").samples(),
              0u);
}

TEST(DirectoryEviction, TinyDirectoryStillRunsCorrectly)
{
    // A pathologically small directory forces §III-B entry teardowns
    // (zombie entries, forced freezes); the run must stay correct.
    SystemConfig cfg = makeConfig(EngineKind::Tsoper);
    cfg.dirEntriesPerBank = 16;
    cfg.recordStores = true;
    const Workload w = generateByName("canneal", cfg.numCores, 3, 0.05);
    System sys(cfg, w);
    sys.run();
    EXPECT_GT(sys.stats().get("dir.evictions"), 0u);
    const CheckResult res =
        checkDurableState(sys.durableImage(), sys.storeLog(),
                          PersistModel::StrictTso, cfg.numCores);
    EXPECT_TRUE(res.ok) << res.detail;
    EXPECT_EQ(res.requiredStores, sys.storeLog().totalStores());
}

TEST(DirectoryEviction, TinyDirectoryCrashConsistency)
{
    SystemConfig cfg = makeConfig(EngineKind::Tsoper);
    cfg.dirEntriesPerBank = 16;
    cfg.recordStores = true;
    const Workload w = generateByName("canneal", cfg.numCores, 4, 0.05);
    Cycle full = 0;
    {
        System sys(cfg, w);
        full = sys.run();
    }
    for (unsigned i = 1; i <= 4; ++i) {
        System sys(cfg, w);
        const auto durable = sys.runUntilCrash(full * i / 5);
        const CheckResult res =
            checkDurableState(durable, sys.storeLog(),
                              PersistModel::StrictTso, cfg.numCores);
        EXPECT_TRUE(res.ok) << "crash " << i << ": " << res.detail;
    }
}

TEST(DirectoryEviction, MesiTeardownInvalidatesSharers)
{
    SystemConfig cfg = makeConfig(EngineKind::None);
    cfg.protocol = ProtocolKind::Mesi;
    cfg.dirEntriesPerBank = 16;
    const Workload w = generateByName("canneal", cfg.numCores, 5, 0.05);
    System sys(cfg, w);
    EXPECT_GT(sys.run(), 0u);
    EXPECT_GT(sys.stats().get("dir.evictions"), 0u);
}

TEST(LineSerializer, IdleLinesAreErased)
{
    // The serializer's map must be bounded by in-flight transactions,
    // not by how many distinct lines a long run ever touched.
    EventQueue eq;
    LineSerializer ser(eq);
    for (LineAddr line = 0; line < 500; ++line) {
        eq.schedule(line * 3, [&ser, line] {
            ser.submit(line, [](Cycle t) { return t + 2; });
        });
    }
    eq.run();
    EXPECT_EQ(ser.trackedLines(), 0u);

    // Queued work keeps exactly the busy lines alive, then drains.
    eq.schedule(eq.now() + 1, [&] {
        ser.submit(7, [](Cycle t) { return t + 50; });
        ser.submit(7, [](Cycle t) { return t + 50; });
        ser.submit(9, [](Cycle t) { return t + 10; });
    });
    eq.runUntil([&] { return ser.trackedLines() == 2; });
    EXPECT_TRUE(ser.busy(7));
    eq.run();
    EXPECT_EQ(ser.trackedLines(), 0u);
    EXPECT_FALSE(ser.busy(7));
}

TEST(DirectoryCapacity, EvictBufferOverflowPanics)
{
    StatsRegistry stats;
    Dir dir(64, 1, /*evictBufferEntries=*/2, stats);
    dir.evictBufferEnter(1, 0);
    dir.evictBufferEnter(2, 0);
    EXPECT_EQ(dir.evictBufferOccupancy(), 2u);
    // A third in-teardown entry exceeds the modelled buffer: the model
    // has no backpressure path, so this must be a hard invariant.
    EXPECT_THROW(dir.evictBufferEnter(3, 0), std::logic_error);
    // The rejected entry took no slot.
    dir.evictBufferLeave(2);
    EXPECT_EQ(dir.evictBufferOccupancy(), 1u);
}
