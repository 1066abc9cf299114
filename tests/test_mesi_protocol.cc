/** @file Protocol-level tests for the MESI baseline. */

#include <gtest/gtest.h>

#include "coherence/mesi.hh"
#include "mem/llc.hh"
#include "mem/nvm.hh"
#include "noc/mesh.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

using namespace tsoper;

namespace
{

struct MesiFixture : public ::testing::Test
{
    MesiFixture()
        : mesh(cfg, stats), nvm(cfg, eq, stats), llc(cfg, nvm, stats),
          mesi(cfg, eq, mesh, llc, nvm, stats)
    {
    }

    void
    store(CoreId c, Addr a, StoreId id)
    {
        bool done = false;
        mesi.store(c, a, id, [&](Cycle) { done = true; });
        eq.runUntil([&] { return done; });
        ASSERT_TRUE(done);
    }

    StoreId
    load(CoreId c, Addr a)
    {
        StoreId value = invalidStore;
        bool done = false;
        mesi.load(c, a, [&](Cycle, StoreId v) {
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
    MesiProtocol mesi;
};

constexpr Addr kAddr = 0x5000'0040;
const LineAddr kLine = lineOf(kAddr);

} // namespace

TEST_F(MesiFixture, StoreMakesLineModified)
{
    store(0, kAddr, makeStoreId(0, 0));
    EXPECT_TRUE(mesi.isModified(0, kLine));
    EXPECT_EQ(mesi.lineWords(0, kLine)[wordOf(kAddr)], makeStoreId(0, 0));
}

TEST_F(MesiFixture, RemoteWriteInvalidatesOwner)
{
    store(0, kAddr, makeStoreId(0, 0));
    store(1, kAddr, makeStoreId(1, 0));
    EXPECT_FALSE(mesi.isModified(0, kLine));
    EXPECT_TRUE(mesi.isModified(1, kLine));
    // Value transferred M->M: the second writer's copy has both words.
    EXPECT_EQ(load(1, kAddr), makeStoreId(1, 0));
}

TEST_F(MesiFixture, ReadDowngradesOwnerAndWritesBack)
{
    store(0, kAddr, makeStoreId(0, 0));
    const auto wbBefore = stats.get("traffic.coherence_wb");
    EXPECT_EQ(load(1, kAddr), makeStoreId(0, 0));
    EXPECT_FALSE(mesi.isModified(0, kLine)); // M -> S.
    EXPECT_GT(stats.get("traffic.coherence_wb"), wbBefore);
    EXPECT_TRUE(llc.contains(kLine));
}

TEST_F(MesiFixture, ColdLoadGetsExclusive)
{
    load(0, kAddr);
    // A subsequent store must be silent (E -> M), no new transaction.
    const auto missesBefore = stats.get("mesi.misses");
    store(0, kAddr, makeStoreId(0, 0));
    EXPECT_EQ(stats.get("mesi.misses"), missesBefore);
    EXPECT_TRUE(mesi.isModified(0, kLine));
}

TEST_F(MesiFixture, UpgradeInvalidatesOtherSharers)
{
    store(0, kAddr, makeStoreId(0, 0));
    load(1, kAddr);
    load(2, kAddr);
    store(1, kAddr, makeStoreId(1, 0)); // S -> M upgrade.
    EXPECT_TRUE(mesi.isModified(1, kLine));
    // Other copies invalidated: core 2 misses and sees the new value.
    const auto missesBefore = stats.get("mesi.misses");
    EXPECT_EQ(load(2, kAddr), makeStoreId(1, 0));
    EXPECT_GT(stats.get("mesi.misses"), missesBefore);
}

TEST_F(MesiFixture, ValuesFlowThroughLlcWhenNoOwner)
{
    store(0, kAddr, makeStoreId(0, 0));
    load(1, kAddr); // Downgrade: LLC now has the value.
    store(2, 0x9999'0000, makeStoreId(2, 0)); // Unrelated.
    EXPECT_EQ(load(3, kAddr), makeStoreId(0, 0));
}

TEST_F(MesiFixture, BlockingDirectoryStat)
{
    // Two immediate writers to the same line: the directory serializes.
    bool done0 = false, done1 = false;
    Cycle at0 = 0, at1 = 0;
    mesi.store(0, kAddr, makeStoreId(0, 0), [&](Cycle at) {
        done0 = true;
        at0 = at;
    });
    mesi.store(1, kAddr, makeStoreId(1, 0), [&](Cycle at) {
        done1 = true;
        at1 = at;
    });
    eq.runUntil([&] { return done0 && done1; });
    EXPECT_NE(at0, at1);
}
