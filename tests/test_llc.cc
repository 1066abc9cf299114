/** @file Unit tests for the banked LLC. */

#include <gtest/gtest.h>

#include "mem/llc.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

using namespace tsoper;

namespace
{

struct LlcFixture
{
    EventQueue eq;
    StatsRegistry stats;
    SystemConfig cfg;
    Nvm nvm{cfg, eq, stats};
    Llc llc{cfg, nvm, stats};
};

LineWords
wordsWith(unsigned w, StoreId id)
{
    LineWords words = zeroLine();
    words[w] = id;
    return words;
}

} // namespace

TEST(Llc, InstallAndLookup)
{
    LlcFixture f;
    f.llc.install(10, wordsWith(2, makeStoreId(0, 0)), true, 0);
    ASSERT_TRUE(f.llc.contains(10));
    EXPECT_EQ(f.llc.lookup(10)[2], makeStoreId(0, 0));
}

TEST(Llc, MergeOnReinstall)
{
    LlcFixture f;
    f.llc.install(10, wordsWith(0, makeStoreId(0, 0)), true, 0);
    f.llc.install(10, wordsWith(1, makeStoreId(0, 1)), true, 0);
    EXPECT_EQ(f.llc.lookup(10)[0], makeStoreId(0, 0));
    EXPECT_EQ(f.llc.lookup(10)[1], makeStoreId(0, 1));
}

TEST(Llc, BankMapping)
{
    LlcFixture f;
    EXPECT_EQ(f.llc.bankOf(0), 0u);
    EXPECT_EQ(f.llc.bankOf(7), 7u);
    EXPECT_EQ(f.llc.bankOf(9), 1u);
}

TEST(Llc, AccessLatency)
{
    LlcFixture f;
    EXPECT_EQ(f.llc.access(0, 100), 100 + f.cfg.llcLatency);
}

TEST(Llc, BankContentionSerializes)
{
    LlcFixture f;
    const Cycle a = f.llc.access(0, 0);  // bank 0
    const Cycle b = f.llc.access(8, 0);  // bank 0
    const Cycle c = f.llc.access(1, 0);  // bank 1: unaffected
    EXPECT_GT(b, a);
    EXPECT_EQ(c, a);
}

TEST(Llc, DirtyEvictionWritesNvm)
{
    LlcFixture f;
    SystemConfig small = f.cfg;
    small.llcSets = 1;
    small.llcWays = 1;
    Llc tiny(small, f.nvm, f.stats);
    const StoreId id = makeStoreId(0, 7);
    tiny.install(0, wordsWith(0, id), true, 0);
    tiny.install(8, zeroLine(), false, 0); // Same bank+set: evicts line 0.
    f.eq.run();
    EXPECT_FALSE(tiny.contains(0));
    EXPECT_EQ(f.nvm.durable(0)[0], id);
    EXPECT_GE(f.stats.get("llc.dirty_evictions"), 1u);
}

TEST(Llc, CleanEvictionSkipsNvm)
{
    LlcFixture f;
    SystemConfig small = f.cfg;
    small.llcSets = 1;
    small.llcWays = 1;
    Llc tiny(small, f.nvm, f.stats);
    tiny.install(0, zeroLine(), false, 0);
    tiny.install(8, zeroLine(), false, 0);
    f.eq.run();
    EXPECT_EQ(f.stats.get("nvm.writes_issued"), 0u);
}

TEST(Llc, PinBeforeInstallTakesEffectAtInstall)
{
    LlcFixture f;
    SystemConfig small = f.cfg;
    small.llcSets = 1;
    small.llcWays = 2;
    Llc tiny(small, f.nvm, f.stats);
    // Lines 0, 8, 16 and 24 share bank 0's only set.  An AGB pin can
    // arrive before the line's install.
    tiny.pinForAgb(0);
    EXPECT_TRUE(tiny.isPinned(0));
    tiny.install(0, zeroLine(), false, 0);
    tiny.install(8, zeroLine(), false, 0);
    tiny.install(16, zeroLine(), false, 0); // Evicts 8: 0 is pinned.
    EXPECT_TRUE(tiny.contains(0));
    EXPECT_FALSE(tiny.contains(8));
    tiny.unpinForAgb(0);
    EXPECT_FALSE(tiny.isPinned(0));
    tiny.install(24, zeroLine(), false, 0); // 0 is the LRU line now.
    EXPECT_FALSE(tiny.contains(0));
    EXPECT_TRUE(tiny.contains(16));
}
