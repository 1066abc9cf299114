/**
 * @file
 * Core-model and synchronization tests: TSO store-buffer behaviour
 * (forwarding, line-merge stalls, capacity stalls), in-order
 * completion, lock mutual exclusion / fairness, barrier rendezvous,
 * and the reads-from edges synchronization creates in the log.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "workload/generators.hh"
#include "workload/trace.hh"

using namespace tsoper;

namespace
{

Workload
emptyWorkload(unsigned cores)
{
    Workload w;
    w.perCore.resize(cores);
    return w;
}

SystemConfig
baseCfg()
{
    SystemConfig cfg = makeConfig(EngineKind::None);
    cfg.recordStores = true;
    return cfg;
}

} // namespace

TEST(CpuTest, EmptyTraceFinishesImmediately)
{
    SystemConfig cfg = baseCfg();
    const Workload w = emptyWorkload(cfg.numCores);
    System sys(cfg, w);
    EXPECT_EQ(sys.run(), 0u);
    EXPECT_TRUE(sys.allFinished());
}

TEST(CpuTest, ComputeOpsBurnCycles)
{
    SystemConfig cfg = baseCfg();
    Workload w = emptyWorkload(cfg.numCores);
    for (int i = 0; i < 10; ++i)
        w.perCore[0].push_back({OpType::Compute, 0, 100});
    System sys(cfg, w);
    EXPECT_GE(sys.run(), 1000u);
    EXPECT_EQ(sys.stats().get("cpu.compute_cycles"), 1000u);
}

TEST(CpuTest, StoresRetireThroughTheBuffer)
{
    SystemConfig cfg = baseCfg();
    Workload w = emptyWorkload(cfg.numCores);
    for (unsigned i = 0; i < 10; ++i)
        w.perCore[0].push_back(
            {OpType::Store, layout::privateAddr(0, i), 0});
    System sys(cfg, w);
    sys.run();
    EXPECT_EQ(sys.stats().get("cpu.stores"), 10u);
    EXPECT_EQ(sys.storeLog().storesOf(0), 10u);
}

TEST(CpuTest, StoreBufferCapacityStalls)
{
    SystemConfig cfg = baseCfg();
    cfg.storeBufferEntries = 2;
    Workload w = emptyWorkload(cfg.numCores);
    // A burst of stores to distinct lines must exceed a 2-entry SB.
    for (unsigned i = 0; i < 32; ++i)
        w.perCore[0].push_back(
            {OpType::Store, layout::privateAddr(0, i * 8), 0});
    System sys(cfg, w);
    sys.run();
    EXPECT_GT(sys.stats().get("cpu.sb_full_stalls"), 0u);
}

TEST(CpuTest, LoadAfterStoreSameLineWaitsForDrain)
{
    SystemConfig cfg = baseCfg();
    Workload w = emptyWorkload(cfg.numCores);
    const Addr a = layout::privateAddr(0, 0);
    w.perCore[0].push_back({OpType::Store, a, 0});
    w.perCore[0].push_back({OpType::Load, a + 8, 0}); // Same line, other
                                                      // word: must wait.
    System sys(cfg, w);
    sys.run();
    EXPECT_EQ(sys.stats().get("cpu.sb_line_stalls"), 1u);
}

TEST(CpuTest, ForwardingServesSameWordWithoutStall)
{
    SystemConfig cfg = baseCfg();
    Workload w = emptyWorkload(cfg.numCores);
    const Addr a = layout::privateAddr(0, 0);
    w.perCore[0].push_back({OpType::Store, a, 0});
    w.perCore[0].push_back({OpType::Load, a, 0}); // Same word: forward.
    System sys(cfg, w);
    sys.run();
    EXPECT_EQ(sys.stats().get("cpu.sb_line_stalls"), 0u);
}

TEST(SyncTest, LockProvidesMutualExclusionOrder)
{
    // All cores increment under one lock; the rf chain through the lock
    // line must order all acquire loads behind prior releases — if the
    // coordinator or the RMW were broken, the run would deadlock or the
    // log would miss release->acquire edges.
    SystemConfig cfg = baseCfg();
    Workload w = emptyWorkload(cfg.numCores);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        for (int r = 0; r < 5; ++r) {
            w.perCore[c].push_back(
                {OpType::LockAcq, layout::lockAddr(0), 0});
            w.perCore[c].push_back({OpType::Store, 0x5000'0000, 0});
            w.perCore[c].push_back(
                {OpType::LockRel, layout::lockAddr(0), 0});
        }
    }
    w.numLocks = 1;
    System sys(cfg, w);
    sys.run();
    EXPECT_EQ(sys.stats().get("cpu.lock_acquires"), 5u * cfg.numCores);
    // Later acquirers observed earlier lock-line stores: rf edges exist.
    std::size_t rfEdges = 0;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        const auto n = sys.storeLog().storesOf(static_cast<CoreId>(c));
        for (std::uint64_t q = 0; q < n; ++q) {
            const auto *rec =
                sys.storeLog().find(makeStoreId(static_cast<CoreId>(c),
                                                q));
            rfEdges += sys.storeLog().rfPreds(*rec).size();
        }
    }
    EXPECT_GT(rfEdges, 0u);
}

TEST(SyncTest, BarrierSynchronizesAllCores)
{
    SystemConfig cfg = baseCfg();
    Workload w = emptyWorkload(cfg.numCores);
    // Core 0 computes long before the barrier; everyone must wait.
    w.perCore[0].push_back({OpType::Compute, 0, 5000});
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        w.perCore[c].push_back(
            {OpType::Barrier, layout::barrierAddr(0), 0});
        w.perCore[c].push_back(
            {OpType::Store, layout::privateAddr(c, 0), 0});
    }
    w.numBarriers = 1;
    System sys(cfg, w);
    const Cycle cycles = sys.run();
    EXPECT_GE(cycles, 5000u); // Nobody passes before core 0 arrives.
    EXPECT_EQ(sys.stats().get("cpu.barriers"), cfg.numCores);
}

TEST(SyncTest, BarrierReusableAcrossGenerations)
{
    SystemConfig cfg = baseCfg();
    Workload w = emptyWorkload(cfg.numCores);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        for (int g = 0; g < 4; ++g)
            w.perCore[c].push_back(
                {OpType::Barrier, layout::barrierAddr(0), 0});
    }
    w.numBarriers = 1;
    System sys(cfg, w);
    sys.run();
    EXPECT_TRUE(sys.allFinished());
    EXPECT_EQ(sys.stats().get("cpu.barriers"), 4u * cfg.numCores);
}

TEST(SyncTest, ContendedLocksAreHandedOverInQueueOrder)
{
    // One long-holding core, others queue: everyone eventually runs.
    SystemConfig cfg = baseCfg();
    Workload w = emptyWorkload(cfg.numCores);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        w.perCore[c].push_back({OpType::LockAcq, layout::lockAddr(3), 3});
        w.perCore[c].push_back({OpType::Compute, 0, 200});
        w.perCore[c].push_back({OpType::LockRel, layout::lockAddr(3), 3});
    }
    w.numLocks = 4;
    System sys(cfg, w);
    const Cycle cycles = sys.run();
    // Strictly serialized critical sections: at least 8 x 200 cycles.
    EXPECT_GE(cycles, 1600u);
}

TEST(SyncTest, TsoValueVisibilityThroughLock)
{
    // Writer stores data then releases; reader acquires then loads:
    // the reader must observe the writer's value (recorded as rf).
    SystemConfig cfg = baseCfg();
    Workload w = emptyWorkload(cfg.numCores);
    const Addr data = 0x5000'0100;
    w.perCore[0].push_back({OpType::LockAcq, layout::lockAddr(0), 0});
    w.perCore[0].push_back({OpType::Store, data, 0});
    w.perCore[0].push_back({OpType::LockRel, layout::lockAddr(0), 0});
    w.perCore[1].push_back({OpType::Compute, 0, 2000}); // Acquire later.
    w.perCore[1].push_back({OpType::LockAcq, layout::lockAddr(0), 0});
    w.perCore[1].push_back({OpType::Load, data, 0});
    w.perCore[1].push_back({OpType::Store, data + 8, 0});
    w.perCore[1].push_back({OpType::LockRel, layout::lockAddr(0), 0});
    w.numLocks = 1;
    System sys(cfg, w);
    sys.run();
    // Core 1's data store carries an rf edge to core 0's data store.
    bool found = false;
    const auto n = sys.storeLog().storesOf(1);
    for (std::uint64_t q = 0; q < n && !found; ++q) {
        const auto *rec = sys.storeLog().find(makeStoreId(1, q));
        for (StoreId rf : sys.storeLog().rfPreds(*rec))
            found |= (storeCore(rf) == 0 &&
                      sys.storeLog().find(rf)->addr == data);
    }
    EXPECT_TRUE(found);
}

TEST(SyncTest, MixedEnginesHandleSyncWorkloads)
{
    for (EngineKind e : {EngineKind::Tsoper, EngineKind::HwRp,
                         EngineKind::Bsp}) {
        SystemConfig cfg = makeConfig(e);
        const Workload w =
            generateByName("fluidanimate", cfg.numCores, 2, 0.03);
        System sys(cfg, w);
        EXPECT_GT(sys.run(), 0u) << toString(e);
    }
}
