/**
 * @file
 * Protocol-level tests for Sharing-List Coherence: list construction,
 * multiversioning, non-destructive invalidation, tail-to-head persist,
 * upgrades, and write-permission-at-link-up timing.
 *
 * A RecordingHooks shim plays the persistency engine so the tests can
 * observe and steer the protocol directly.
 */

#include <gtest/gtest.h>

#include <vector>

#include "coherence/slc.hh"
#include "mem/llc.hh"
#include "mem/nvm.hh"
#include "noc/mesh.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

using namespace tsoper;

namespace
{

/** Engine stand-in that keeps invalid dirty versions (TSOPER-style). */
class RecordingHooks : public ProtocolHooks
{
  public:
    bool dropsInvalidDirty() const override { return false; }

    bool
    lineInUnpersistedAg(CoreId core, LineAddr line) const override
    {
        (void)core; (void)line;
        return false;
    }

    Cycle
    onDirtyExpose(CoreId owner, LineAddr line, CoreId requester,
                  bool forWrite, Cycle now) override
    {
        exposes.push_back({owner, line, requester, forWrite});
        return now;
    }

    void
    onReadDependence(CoreId reader, LineAddr line, Cycle) override
    {
        readDeps.push_back({reader, line});
    }

    void
    onBecameTail(CoreId core, LineAddr line, Cycle) override
    {
        tails.push_back({core, line});
    }

    void
    onStoreCommitted(CoreId core, LineAddr line, Cycle) override
    {
        commits.push_back({core, line});
    }

    struct Expose
    {
        CoreId owner;
        LineAddr line;
        CoreId requester;
        bool forWrite;
    };
    std::vector<Expose> exposes;
    std::vector<std::pair<CoreId, LineAddr>> readDeps;
    std::vector<std::pair<CoreId, LineAddr>> tails;
    std::vector<std::pair<CoreId, LineAddr>> commits;
};

struct SlcFixture : public ::testing::Test
{
    SlcFixture()
        : mesh(cfg, stats), nvm(cfg, eq, stats), llc(cfg, nvm, stats),
          slc(cfg, eq, mesh, llc, nvm, stats)
    {
        slc.setHooks(&hooks);
    }

    /** Issue a store and run to completion. */
    void
    store(CoreId c, Addr a, StoreId id)
    {
        bool done = false;
        slc.store(c, a, id, [&](Cycle) { done = true; });
        eq.runUntil([&] { return done; });
        ASSERT_TRUE(done);
    }

    /** Issue a load, run to completion, return the observed value. */
    StoreId
    load(CoreId c, Addr a)
    {
        StoreId value = invalidStore;
        bool done = false;
        slc.load(c, a, [&](Cycle, StoreId v) {
            value = v;
            done = true;
        });
        eq.runUntil([&] { return done; });
        EXPECT_TRUE(done);
        return value;
    }

    SystemConfig cfg;
    EventQueue eq;
    StatsRegistry stats;
    Mesh mesh;
    Nvm nvm;
    Llc llc;
    RecordingHooks hooks;
    SlcProtocol slc;
};

constexpr Addr kAddr = 0x5000'0000;
const LineAddr kLine = lineOf(kAddr);

} // namespace

TEST_F(SlcFixture, FirstWriterBecomesSoleHead)
{
    store(0, kAddr, makeStoreId(0, 0));
    EXPECT_TRUE(slc.hasNode(0, kLine));
    EXPECT_TRUE(slc.nodeValid(0, kLine));
    EXPECT_TRUE(slc.nodeDirty(0, kLine));
    EXPECT_EQ(slc.nodeFwd(0, kLine), invalidCore); // The tail.
    EXPECT_EQ(slc.listLengths(kLine).all, 1u);
}

TEST_F(SlcFixture, SecondWriterPrependsAndInvalidatesNonDestructively)
{
    store(0, kAddr, makeStoreId(0, 0));
    store(1, kAddr, makeStoreId(1, 0));
    // Multiversioning: both versions coexist on the list (§IV-A).
    EXPECT_EQ(slc.listLengths(kLine).all, 2u);
    EXPECT_EQ(slc.listLengths(kLine).valid, 1u);
    EXPECT_TRUE(slc.nodeValid(1, kLine));
    EXPECT_FALSE(slc.nodeValid(0, kLine)); // Invalid, pending persist.
    EXPECT_TRUE(slc.nodeDirty(0, kLine));  // Still holds its version.
    EXPECT_EQ(slc.nodeFwd(0, kLine), invalidCore); // The tail.
    EXPECT_NE(slc.nodeFwd(1, kLine), invalidCore);
}

TEST_F(SlcFixture, InvalidationExposesDirtyOwner)
{
    store(0, kAddr, makeStoreId(0, 0));
    store(1, kAddr, makeStoreId(1, 0));
    ASSERT_EQ(hooks.exposes.size(), 1u);
    EXPECT_EQ(hooks.exposes[0].owner, 0);
    EXPECT_EQ(hooks.exposes[0].requester, 1);
    EXPECT_TRUE(hooks.exposes[0].forWrite);
}

TEST_F(SlcFixture, ReaderGetsDataAndRecordsDependence)
{
    store(0, kAddr, makeStoreId(0, 7));
    const StoreId v = load(1, kAddr);
    EXPECT_EQ(v, makeStoreId(0, 7));
    // Reader is the new head; owner stays valid (reads don't destroy).
    EXPECT_TRUE(slc.nodeValid(0, kLine));
    EXPECT_TRUE(slc.nodeValid(1, kLine));
    EXPECT_FALSE(slc.nodeDirty(1, kLine));
    EXPECT_EQ(slc.listLengths(kLine).valid, 2u);
    ASSERT_EQ(hooks.readDeps.size(), 1u);
    EXPECT_EQ(hooks.readDeps[0].first, 1);
    // The read froze (exposed) the owner.
    ASSERT_EQ(hooks.exposes.size(), 1u);
    EXPECT_FALSE(hooks.exposes[0].forWrite);
}

TEST_F(SlcFixture, ReadOfCleanLineCreatesNoDependence)
{
    store(0, kAddr, makeStoreId(0, 0));
    // Persist the version so it becomes clean.
    slc.persistComplete(0, kLine, eq.now());
    load(1, kAddr);
    EXPECT_TRUE(hooks.readDeps.empty());
    EXPECT_EQ(hooks.exposes.size(), 0u);
}

TEST_F(SlcFixture, PersistCompleteOnValidHeadMakesItClean)
{
    store(0, kAddr, makeStoreId(0, 0));
    slc.persistComplete(0, kLine, eq.now());
    EXPECT_TRUE(slc.nodeValid(0, kLine));
    EXPECT_FALSE(slc.nodeDirty(0, kLine));
    EXPECT_TRUE(llc.contains(kLine)); // Parallel LLC writeback.
    EXPECT_EQ(llc.lookup(kLine)[wordOf(kAddr)], makeStoreId(0, 0));
}

TEST_F(SlcFixture, PersistCompleteOnInvalidVersionUnlinksAndPassesToken)
{
    store(0, kAddr, makeStoreId(0, 0));
    store(1, kAddr, makeStoreId(1, 0));
    hooks.tails.clear();
    // Tail-to-head: the invalid old version persists and unlinks.
    slc.persistComplete(0, kLine, eq.now());
    EXPECT_FALSE(slc.hasNode(0, kLine));
    EXPECT_EQ(slc.listLengths(kLine).all, 1u);
    // Core 1's node received the persist token.
    ASSERT_FALSE(hooks.tails.empty());
    EXPECT_EQ(hooks.tails[0].first, 1);
}

TEST_F(SlcFixture, PersistOutOfOrderPanics)
{
    store(0, kAddr, makeStoreId(0, 0));
    store(1, kAddr, makeStoreId(1, 0));
    // Core 1's version is not the persist tail: core 0 must go first.
    EXPECT_THROW(slc.persistComplete(1, kLine, eq.now()),
                 std::logic_error);
}

TEST_F(SlcFixture, PersistTailSkipsCleanSharers)
{
    store(0, kAddr, makeStoreId(0, 0));
    load(1, kAddr); // Clean sharer above the dirty owner.
    // Core 1 can only persist-tail once core 0's version persists;
    // conversely core 0 is a persist tail despite not being the head.
    EXPECT_TRUE(slc.nodeIsPersistTail(0, kLine));
    EXPECT_FALSE(slc.nodeIsPersistTail(1, kLine));
    slc.persistComplete(0, kLine, eq.now());
    EXPECT_TRUE(slc.nodeIsPersistTail(1, kLine));
}

TEST_F(SlcFixture, ThreeWritersFormOrderedVersionChain)
{
    store(0, kAddr, makeStoreId(0, 0));
    store(1, kAddr, makeStoreId(1, 0));
    store(2, kAddr, makeStoreId(2, 0));
    EXPECT_EQ(slc.listLengths(kLine).all, 3u);
    EXPECT_EQ(slc.listLengths(kLine).valid, 1u);
    // Persist in list order only.
    EXPECT_TRUE(slc.nodeIsPersistTail(0, kLine));
    EXPECT_FALSE(slc.nodeIsPersistTail(1, kLine));
    slc.persistComplete(0, kLine, eq.now());
    EXPECT_TRUE(slc.nodeIsPersistTail(1, kLine));
    slc.persistComplete(1, kLine, eq.now());
    EXPECT_TRUE(slc.nodeIsPersistTail(2, kLine));
    slc.persistComplete(2, kLine, eq.now());
    // The final version stays valid clean at the head.
    EXPECT_EQ(slc.listLengths(kLine).all, 1u);
    EXPECT_TRUE(slc.nodeValid(2, kLine));
    EXPECT_FALSE(slc.nodeDirty(2, kLine));
}

TEST_F(SlcFixture, UpgradeOfReaderRelinksAsHead)
{
    store(0, kAddr, makeStoreId(0, 0));
    slc.persistComplete(0, kLine, eq.now());
    load(1, kAddr); // 1 is head (clean), 0 below (clean).
    store(0, kAddr, makeStoreId(0, 1)); // 0 must re-link above 1.
    EXPECT_TRUE(slc.nodeDirty(0, kLine));
    EXPECT_TRUE(slc.nodeValid(0, kLine));
    EXPECT_FALSE(slc.hasNode(1, kLine)); // Clean copy invalidated+dropped.
    // Core 1 reloading sees the new version.
    EXPECT_EQ(load(1, kAddr), makeStoreId(0, 1));
}

TEST_F(SlcFixture, WritePermissionAtLinkUpBeatsFullDataLatency)
{
    // The second writer's permission should not wait for anything the
    // old owner still has to do — only for link-up plus data transfer.
    store(0, kAddr, makeStoreId(0, 0));
    const Cycle start = eq.now();
    Cycle grantAt = 0;
    bool done = false;
    slc.store(1, kAddr, makeStoreId(1, 0), [&](Cycle at) {
        grantAt = at;
        done = true;
    });
    eq.runUntil([&] { return done; });
    // Sanity: the grant happens within a small multiple of the NoC
    // round trip, far below an NVM write (360 cycles).
    EXPECT_LT(grantAt - start, cfg.nvmWriteLatency);
}

TEST_F(SlcFixture, StoreValueVisibleToSubsequentLoadsEverywhere)
{
    store(0, kAddr, makeStoreId(0, 0));
    store(1, kAddr + 8, makeStoreId(1, 0)); // Same line: takes over.
    EXPECT_EQ(load(2, kAddr), makeStoreId(0, 0));
    EXPECT_EQ(load(2, kAddr + 8), makeStoreId(1, 0));
    // Core 0's invalid version must persist before core 0 may re-access
    // the line (multiversioning block); afterwards it sees both words.
    slc.persistComplete(0, kLine, eq.now());
    EXPECT_EQ(load(0, kAddr + 8), makeStoreId(1, 0));
    EXPECT_EQ(load(0, kAddr), makeStoreId(0, 0));
}

TEST_F(SlcFixture, SilentWriteOnExclusiveCleanLine)
{
    load(0, kAddr); // Sole copy, E-like.
    hooks.commits.clear();
    const auto missesBefore = stats.get("slc.misses");
    store(0, kAddr, makeStoreId(0, 0));
    EXPECT_EQ(stats.get("slc.misses"), missesBefore);
    ASSERT_EQ(hooks.commits.size(), 1u);
}

TEST_F(SlcFixture, EvictionBufferHoldsDirtyVictims)
{
    SystemConfig tinyCfg = cfg;
    tinyCfg.privSets = 1;
    tinyCfg.privWays = 2;
    SlcProtocol tiny(tinyCfg, eq, mesh, llc, nvm, stats);
    tiny.setHooks(&hooks);
    auto storeTiny = [&](CoreId c, Addr a, StoreId id) {
        bool done = false;
        tiny.store(c, a, id, [&](Cycle) { done = true; });
        eq.runUntil([&] { return done; });
    };
    storeTiny(0, 0x1000, makeStoreId(0, 0));
    storeTiny(0, 0x2000, makeStoreId(0, 1));
    EXPECT_EQ(tiny.evictionBufferOccupancy(0), 0u);
    storeTiny(0, 0x3000, makeStoreId(0, 2)); // Evicts a dirty line.
    EXPECT_EQ(tiny.evictionBufferOccupancy(0), 1u);
    // The evicted node still serves data (it behaves as an AG member).
    bool done = false;
    StoreId v = invalidStore;
    tiny.load(1, 0x1000, [&](Cycle, StoreId val) {
        v = val;
        done = true;
    });
    eq.runUntil([&] { return done; });
    EXPECT_EQ(v, makeStoreId(0, 0));
}

TEST_F(SlcFixture, ListStatsTrackLengths)
{
    store(0, kAddr, makeStoreId(0, 0));
    store(1, kAddr, makeStoreId(1, 0));
    store(2, kAddr, makeStoreId(2, 0));
    const auto &hist = stats.histogram("slc.persist_list_len");
    EXPECT_GT(hist.samples(), 0u);
    EXPECT_GE(hist.max(), 3u);
}
