/**
 * @file
 * SLC corner cases beyond the basic protocol tests: stale-copy
 * re-linking, eviction-buffer revival, blocked re-accesses waking on
 * persist, three-core version chains with interleaved readers, and
 * zombie-entry teardown under a tiny directory.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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

/** Hooks that emulate the TSOPER engine's keep/member policies with
 *  test-controlled membership. */
class MemberHooks : public ProtocolHooks
{
  public:
    bool dropsInvalidDirty() const override { return false; }

    bool
    lineInUnpersistedAg(CoreId core, LineAddr line) const override
    {
        return members.count(key(core, line)) != 0;
    }

    bool
    lineInFrozenAg(CoreId core, LineAddr line) const override
    {
        return frozen.count(key(core, line)) != 0;
    }

    void
    onNodeRelinked(CoreId core, LineAddr line, Cycle) override
    {
        relinks.emplace_back(core, line);
    }

    static std::uint64_t
    key(CoreId c, LineAddr l)
    {
        return (static_cast<std::uint64_t>(c) << 52) ^ l;
    }

    std::set<std::uint64_t> members;
    std::set<std::uint64_t> frozen;
    std::vector<std::pair<CoreId, LineAddr>> relinks;
};

struct SlcEdgeFixture : public ::testing::Test
{
    SlcEdgeFixture()
        : mesh(cfg, stats), nvm(cfg, eq, stats), llc(cfg, nvm, stats),
          slc(cfg, eq, mesh, llc, nvm, stats)
    {
        slc.setHooks(&hooks);
    }

    void
    store(CoreId c, Addr a, StoreId id)
    {
        bool done = false;
        slc.store(c, a, id, [&](Cycle) { done = true; });
        eq.runUntil([&] { return done; });
        ASSERT_TRUE(done);
    }

    StoreId
    load(CoreId c, Addr a)
    {
        StoreId v = invalidStore;
        bool done = false;
        slc.load(c, a, [&](Cycle, StoreId val) {
            v = val;
            done = true;
        });
        eq.runUntil([&] { return done; });
        EXPECT_TRUE(done);
        return v;
    }

    SystemConfig cfg;
    EventQueue eq;
    StatsRegistry stats;
    Mesh mesh;
    Nvm nvm;
    Llc llc;
    MemberHooks hooks;
    SlcProtocol slc;
};

constexpr Addr kAddr = 0x5000'0000;
const LineAddr kLine = lineOf(kAddr);

} // namespace

TEST_F(SlcEdgeFixture, StaleCleanCopySplicesOnReload)
{
    // Core 1 reads, then core 0 writes twice (invalidating core 1's
    // clean copy non-destructively is not needed — it's droppable), and
    // core 1 reloads: the stale node is spliced and re-created.
    store(0, kAddr, makeStoreId(0, 0));
    slc.persistComplete(0, kLine, eq.now());
    load(1, kAddr);
    store(0, kAddr, makeStoreId(0, 1)); // Invalidates core 1's copy.
    EXPECT_EQ(load(1, kAddr), makeStoreId(0, 1));
    EXPECT_TRUE(slc.nodeValid(1, kLine));
}

TEST_F(SlcEdgeFixture, InvalidCleanMemberRelinksOnReload)
{
    // Core 1's clean copy is an AG member when invalidated: a reload
    // must keep the dependence by re-linking at the head (not stall).
    store(0, kAddr, makeStoreId(0, 0));
    load(1, kAddr); // Clean copy at core 1.
    hooks.members.insert(MemberHooks::key(1, kLine));
    store(2, kAddr, makeStoreId(2, 0)); // Invalidates 0 and 1.
    EXPECT_FALSE(slc.nodeValid(1, kLine)); // Kept linked (member).
    EXPECT_EQ(load(1, kAddr), makeStoreId(2, 0));
    ASSERT_EQ(hooks.relinks.size(), 1u);
    EXPECT_EQ(hooks.relinks[0].first, 1);
    EXPECT_TRUE(slc.nodeValid(1, kLine));
}

TEST_F(SlcEdgeFixture, FrozenMemberReaccessWaitsForRelease)
{
    store(0, kAddr, makeStoreId(0, 0));
    load(1, kAddr);
    hooks.members.insert(MemberHooks::key(1, kLine));
    hooks.frozen.insert(MemberHooks::key(1, kLine));
    store(2, kAddr, makeStoreId(2, 0)); // Invalidates core 1's member.
    // Core 1 reloads: must wait (frozen membership).
    bool done = false;
    StoreId v = invalidStore;
    slc.load(1, kAddr, [&](Cycle, StoreId val) {
        v = val;
        done = true;
    });
    eq.run();
    EXPECT_FALSE(done);
    // The AG retires: membership clears, clean member released.
    hooks.frozen.clear();
    hooks.members.clear();
    slc.releaseCleanMember(1, kLine, eq.now());
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(v, makeStoreId(2, 0));
}

TEST_F(SlcEdgeFixture, PendingDirtyReaccessWakesOnPersist)
{
    store(0, kAddr, makeStoreId(0, 0));
    store(1, kAddr, makeStoreId(1, 0)); // Core 0's version pending.
    bool done = false;
    slc.load(0, kAddr, [&](Cycle, StoreId) { done = true; });
    eq.run();
    EXPECT_FALSE(done); // Blocked on own pending version.
    slc.persistComplete(0, kLine, eq.now());
    eq.run();
    EXPECT_TRUE(done);
}

TEST_F(SlcEdgeFixture, EvictedDirtyHeadStillServesRemoteReaders)
{
    SystemConfig tinyCfg = cfg;
    tinyCfg.privSets = 1;
    tinyCfg.privWays = 1;
    SlcProtocol tiny(tinyCfg, eq, mesh, llc, nvm, stats);
    tiny.setHooks(&hooks);
    auto tinyStore = [&](CoreId c, Addr a, StoreId id) {
        bool done = false;
        tiny.store(c, a, id, [&](Cycle) { done = true; });
        eq.runUntil([&] { return done; });
    };
    tinyStore(0, 0x1000, makeStoreId(0, 0));
    hooks.members.insert(MemberHooks::key(0, lineOf(0x1000)));
    hooks.frozen.insert(MemberHooks::key(0, lineOf(0x1000)));
    tinyStore(0, 0x2000, makeStoreId(0, 1)); // Evicts line 0x1000.
    EXPECT_EQ(tiny.evictionBufferOccupancy(0), 1u);
    // A remote reader still gets the evicted version's data.
    bool done = false;
    StoreId v = invalidStore;
    tiny.load(3, 0x1000, [&](Cycle, StoreId val) {
        v = val;
        done = true;
    });
    eq.runUntil([&] { return done; });
    EXPECT_EQ(v, makeStoreId(0, 0));
    // Persisting the evicted version empties the buffer.
    hooks.frozen.clear();
    hooks.members.clear();
    tiny.persistComplete(0, lineOf(0x1000), eq.now());
    EXPECT_EQ(tiny.evictionBufferOccupancy(0), 0u);
}

/** An SLC over 16-set private caches (8 ways, 8 KiB), where lines 16
 *  apart collide in one set. */
struct SmallCacheFixture : public SlcEdgeFixture
{
    SmallCacheFixture() : small(smallCfg(cfg), eq, mesh, llc, nvm, stats)
    {
        small.setHooks(&hooks);
    }

    static SystemConfig
    smallCfg(SystemConfig c)
    {
        c.privSets = 16;
        return c;
    }

    /** The i-th line of core 0's set 0. */
    static Addr setZero(unsigned i) { return addrOfLine(LineAddr{i} * 16); }

    void
    smallStore(Addr a, StoreId id)
    {
        bool done = false;
        small.store(0, a, id, [&](Cycle) { done = true; });
        eq.runUntil([&] { return done; });
        ASSERT_TRUE(done);
    }

    SlcProtocol small;
};

TEST_F(SmallCacheFixture, DirtyVictimsParkAndAStoreRevivesThem)
{
    // Ten dirty lines through one 8-way set: the two oldest park.
    for (unsigned i = 0; i < 10; ++i)
        smallStore(setZero(i), makeStoreId(0, i));
    EXPECT_EQ(small.evictionBufferOccupancy(0), 2u);
    EXPECT_TRUE(small.nodeValid(0, lineOf(setZero(0))));
    EXPECT_TRUE(small.nodeDirty(0, lineOf(setZero(0))));

    // A store to a parked line revives it into the set, whose LRU line
    // (the third stored) parks in its place.
    smallStore(setZero(0), makeStoreId(0, 10));
    EXPECT_EQ(small.evictionBufferOccupancy(0), 2u);
    EXPECT_EQ(small.nodeWords(0, lineOf(setZero(0)))[0], makeStoreId(0, 10));

    // Persisting the two parked versions empties the buffer; the
    // revived node stays, resident.
    small.persistComplete(0, lineOf(setZero(1)), eq.now());
    small.persistComplete(0, lineOf(setZero(2)), eq.now());
    EXPECT_EQ(small.evictionBufferOccupancy(0), 0u);
    EXPECT_FALSE(small.hasNode(0, lineOf(setZero(1))));
    EXPECT_TRUE(small.nodeDirty(0, lineOf(setZero(0))));
    EXPECT_GT(stats.histogram("slc.evict_buffer_occupancy").samples(), 0u);
}

TEST_F(SmallCacheFixture, ParkingPastTheEvictionBufferPanics)
{
    const unsigned cap = cfg.evictBufferEntries;
    for (unsigned i = 0; i < 8 + cap; ++i)
        smallStore(setZero(i), makeStoreId(0, i));
    EXPECT_EQ(small.evictionBufferOccupancy(0), cap);
    // One more dirty victim has nowhere to go: the model has no
    // backpressure path, so the buffer's cap is a hard invariant.
    try {
        smallStore(setZero(8 + cap), makeStoreId(0, 8 + cap));
        FAIL() << "parking past the cap did not panic";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "SLC eviction buffer over capacity: " +
                      std::to_string(cap + 1) + " entries, cap " +
                      std::to_string(cap)),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(SlcEdgeFixture, FourCoreVersionChainPersistsInOrder)
{
    // W0 -> R1 -> W2 -> R3: list holds two versions + two readers;
    // persists must go v0 then v2, with readers passing the token.
    // R1's copy is an AG member (as a real read of dirty data would
    // be), so W2's invalidation keeps it linked.
    store(0, kAddr, makeStoreId(0, 0));
    load(1, kAddr);
    hooks.members.insert(MemberHooks::key(1, kLine));
    store(2, kAddr, makeStoreId(2, 0));
    load(3, kAddr);
    EXPECT_EQ(slc.listLengths(kLine).all, 4u);
    EXPECT_TRUE(slc.nodeIsPersistTail(0, kLine));
    EXPECT_FALSE(slc.nodeIsPersistTail(2, kLine));
    slc.persistComplete(0, kLine, eq.now());
    EXPECT_FALSE(slc.hasNode(0, kLine)); // Invalid version unlinked.
    // R1's invalid clean member still sits below W2 but carries no
    // persist obligation: W2 is already a persist tail.
    EXPECT_TRUE(slc.hasNode(1, kLine));
    EXPECT_TRUE(slc.nodeIsPersistTail(2, kLine));
    slc.persistComplete(2, kLine, eq.now());
    // Core 2 stays as a valid clean sharer; the LLC holds v2.
    EXPECT_TRUE(slc.nodeValid(2, kLine));
    EXPECT_FALSE(slc.nodeDirty(2, kLine));
    EXPECT_EQ(llc.lookup(kLine)[wordOf(kAddr)], makeStoreId(2, 0));
}

TEST_F(SlcEdgeFixture, WordsAccumulateAcrossVersions)
{
    // Different writers touch different words; every version carries
    // the full line image forward.
    store(0, kAddr, makeStoreId(0, 0));
    store(1, kAddr + 8, makeStoreId(1, 0));
    store(2, kAddr + 16, makeStoreId(2, 0));
    const LineWords &words = slc.nodeWords(2, kLine);
    EXPECT_EQ(words[0], makeStoreId(0, 0));
    EXPECT_EQ(words[1], makeStoreId(1, 0));
    EXPECT_EQ(words[2], makeStoreId(2, 0));
}

TEST_F(SlcEdgeFixture, TinyDirectoryZombieBlocksThenRecovers)
{
    SystemConfig dirCfg = cfg;
    dirCfg.dirEntriesPerBank = 8; // One set of 8 ways per bank.
    SlcProtocol dirSlc(dirCfg, eq, mesh, llc, nvm, stats);
    dirSlc.setHooks(&hooks);
    auto dstore = [&](CoreId c, Addr a, StoreId id) {
        bool done = false;
        dirSlc.store(c, a, id, [&](Cycle) { done = true; });
        eq.runUntil([&] { return done; });
        return done;
    };
    // Fill one directory set (same bank, distinct tags), then one more
    // to force an entry eviction.  With no memberships, clean/dirty
    // teardown resolves immediately under hooks that... keep dirty:
    // make them droppable for this test by using default hooks.
    ProtocolHooks plain;
    dirSlc.setHooks(&plain);
    for (unsigned i = 0; i < 10; ++i) {
        const Addr a = 0x5000'0000 + i * 8 * lineBytes; // Same bank 0.
        EXPECT_TRUE(dstore(0, a, makeStoreId(0, i)));
    }
    EXPECT_GT(stats.get("dir.evictions"), 0u);
    // Victim lines remain readable with current data (via the LLC).
    bool done = false;
    StoreId v = invalidStore;
    dirSlc.load(5, 0x5000'0000, [&](Cycle, StoreId val) {
        v = val;
        done = true;
    });
    eq.runUntil([&] { return done; });
    EXPECT_EQ(v, makeStoreId(0, 0));
}
