/**
 * @file
 * The decomposed directory transactions (coherence/txn.hh and the
 * multi-message state machines in slc.cc / mesi.cc): TxnTable leg
 * folding, MSHR tracking and full-stall retry, request races on a
 * single line (two writers, invalidation vs. directory eviction).
 */

#include <gtest/gtest.h>

#include "coherence/mesi.hh"
#include "coherence/slc.hh"
#include "coherence/txn.hh"
#include "mem/llc.hh"
#include "mem/nvm.hh"
#include "noc/mesh.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

using namespace tsoper;

namespace
{

constexpr Addr kAddr = 0x5000'0040;
const LineAddr kLine = lineOf(kAddr);

// --- TxnTable ---------------------------------------------------------

TEST(TxnTable, FiresCompletionWithMaxOfAllLegs)
{
    StatsRegistry stats;
    TxnTable txns(stats);
    Cycle readyAt = 0;
    unsigned fired = 0;
    const TxnTable::Id id = txns.begin(kLine, 0, 3, [&](Cycle at) {
        readyAt = at;
        ++fired;
    });
    txns.legDone(id, 5);
    txns.legDone(id, 42);
    EXPECT_EQ(fired, 0u); // Two of three legs: still open.
    EXPECT_EQ(txns.open(), 1u);
    txns.legDone(id, 17);
    EXPECT_EQ(fired, 1u);
    EXPECT_EQ(readyAt, 42u); // The fold is the max, not the last.
    EXPECT_EQ(txns.open(), 0u);
    EXPECT_EQ(stats.get("dir.txn_allocs"), 1u);
    EXPECT_EQ(stats.get("dir.txn_legs"), 3u);
}

TEST(TxnTable, CompletionMayOpenNewEntries)
{
    StatsRegistry stats;
    TxnTable txns(stats);
    bool innerFired = false;
    const TxnTable::Id id = txns.begin(kLine, 0, 1, [&](Cycle) {
        // Re-entrancy: the outer entry is already retired here.
        EXPECT_EQ(txns.open(), 0u);
        const TxnTable::Id inner = txns.begin(
            kLine + 1, 1, 1, [&](Cycle) { innerFired = true; });
        txns.legDone(inner, 9);
    });
    txns.legDone(id, 4);
    EXPECT_TRUE(innerFired);
    EXPECT_EQ(stats.get("dir.txn_allocs"), 2u);
}

// --- Mshr -------------------------------------------------------------

TEST(Mshr, SecondaryMissMergesAndFullStallRetries)
{
    EventQueue eq;
    StatsRegistry stats;
    Mshr mshr(eq, /*cores=*/2, /*entriesPerCore=*/2, stats);

    mshr.enter(0, 100);
    mshr.enter(0, 200);
    EXPECT_TRUE(mshr.has(0, 100)); // Secondary miss would pass through.
    EXPECT_TRUE(mshr.full(0));
    EXPECT_FALSE(mshr.full(1)); // Registers are per core.

    bool retried = false;
    mshr.defer(0, [&] { retried = true; });
    EXPECT_EQ(stats.get("mshr.full_stalls"), 1u);
    eq.run();
    EXPECT_FALSE(retried); // Parked until a register frees.

    mshr.leave(0, 100);
    eq.run();
    EXPECT_TRUE(retried);
    EXPECT_EQ(mshr.inFlight(0), 1u);
}

// --- Protocol-level races --------------------------------------------

template <typename Protocol> struct RaceFixture : public ::testing::Test
{
    RaceFixture()
        : mesh(cfg, stats), nvm(cfg, eq, stats), llc(cfg, nvm, stats),
          proto(cfg, eq, mesh, llc, nvm, stats)
    {
    }

    /** Issue a store without draining the queue (for overlap tests). */
    void
    issueStore(CoreId c, Addr a, StoreId id, bool *done,
               Cycle *at = nullptr)
    {
        proto.store(c, a, id, [done, at](Cycle when) {
            *done = true;
            if (at)
                *at = when;
        });
    }

    StoreId
    load(CoreId c, Addr a)
    {
        StoreId value = invalidStore;
        bool done = false;
        proto.load(c, a, [&](Cycle, StoreId v) {
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
    Protocol proto;
};

using Protocols = ::testing::Types<MesiProtocol, SlcProtocol>;

template <typename Protocol>
using RaceBothProtocols = RaceFixture<Protocol>;
TYPED_TEST_SUITE(RaceBothProtocols, Protocols);

TYPED_TEST(RaceBothProtocols, TwoCoresStoringSameLineSerialize)
{
    // Both stores are in flight before any event runs: the line
    // serializer must order them, and the decomposed message legs of
    // the first transaction must not leak state into the second.
    bool done0 = false, done1 = false;
    Cycle at0 = 0, at1 = 0;
    this->issueStore(0, kAddr, makeStoreId(0, 0), &done0, &at0);
    this->issueStore(1, kAddr, makeStoreId(1, 0), &done1, &at1);
    this->eq.runUntil([&] { return done0 && done1; });
    ASSERT_TRUE(done0 && done1);
    EXPECT_GE(at1, at0); // FIFO per line: issue order is completion order.
    // The second writer owns the line; a third core sees its value.
    EXPECT_EQ(this->load(2, kAddr), makeStoreId(1, 0));
}

TYPED_TEST(RaceBothProtocols, WriterRacesReaderOnOneLine)
{
    bool wrote = false, read = false;
    StoreId seen = invalidStore;
    this->issueStore(0, kAddr, makeStoreId(0, 7), &wrote);
    this->proto.load(1, kAddr, [&](Cycle, StoreId v) {
        seen = v;
        read = true;
    });
    this->eq.runUntil([&] { return wrote && read; });
    ASSERT_TRUE(wrote && read);
    // The load was queued behind the store, so it must observe it.
    EXPECT_EQ(seen, makeStoreId(0, 7));
}

TYPED_TEST(RaceBothProtocols, MshrFullStallsAndDrains)
{
    SystemConfig tiny = this->cfg;
    tiny.mshrEntries = 1;
    TypeParam proto(tiny, this->eq, this->mesh, this->llc, this->nvm,
                    this->stats);
    // Three primary misses from one core with a single register: the
    // second and third park in the MSHR FIFO and retry as it frees.
    unsigned done = 0;
    for (unsigned i = 0; i < 3; ++i)
        proto.load(0, kAddr + i * lineBytes, [&](Cycle, StoreId) {
            ++done;
        });
    this->eq.runUntil([&] { return done == 3; });
    ASSERT_EQ(done, 3u);
    EXPECT_GE(this->stats.get("mshr.full_stalls"), 2u);
}

TYPED_TEST(RaceBothProtocols, InvalidationRacesDirectoryEviction)
{
    // A tiny directory (one 8-way set per bank) under a same-bank
    // address storm: entry evictions run while an ownership-transfer
    // transaction for line A holds its entry open (pinned).  The
    // deferred transaction must complete with the right data and the
    // pinned entry must never be the forced victim.
    SystemConfig dirCfg = this->cfg;
    dirCfg.dirEntriesPerBank = 8;
    TypeParam proto(dirCfg, this->eq, this->mesh, this->llc, this->nvm,
                    this->stats);
    auto drain = [&](CoreId c, Addr a, StoreId id) {
        bool done = false;
        proto.store(c, a, id, [&](Cycle) { done = true; });
        this->eq.runUntil([&] { return done; });
        ASSERT_TRUE(done);
    };
    drain(0, kAddr, makeStoreId(0, 0)); // Core 0 owns A dirty.
    // Ownership transfer A: 0 -> 1, left in flight (not drained).
    bool xferDone = false;
    proto.store(1, kAddr, makeStoreId(1, 0),
                [&](Cycle) { xferDone = true; });
    // Same-bank storm from another core forces victim selection in
    // A's directory set while A's transaction is open.
    for (unsigned i = 1; i <= 10; ++i)
        drain(2, kAddr + i * 8 * lineBytes, makeStoreId(2, i));
    this->eq.runUntil([&] { return xferDone; });
    ASSERT_TRUE(xferDone);
    EXPECT_GT(this->stats.get("dir.evictions"), 0u);
    auto dload = [&](CoreId c, Addr a) {
        StoreId v = invalidStore;
        bool done = false;
        proto.load(c, a, [&](Cycle, StoreId val) {
            v = val;
            done = true;
        });
        this->eq.runUntil([&] { return done; });
        EXPECT_TRUE(done);
        return v;
    };
    // The transferred line carries the second writer's word.
    EXPECT_EQ(dload(3, kAddr), makeStoreId(1, 0));
    // And the storm's lines survived their evictions readably.
    EXPECT_EQ(dload(3, kAddr + 8 * lineBytes), makeStoreId(2, 1));
}

} // namespace
