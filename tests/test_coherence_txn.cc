/**
 * @file
 * The decomposed directory transactions (coherence/txn.hh and the
 * multi-message state machines in slc.cc / mesi.cc): TxnTable leg
 * folding, request races on a single line (two writers, invalidation
 * vs. directory eviction), and the bound on each core's requests in
 * flight that lets the protocols run without a miss limit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "coherence/mesi.hh"
#include "coherence/slc.hh"
#include "coherence/txn.hh"
#include "core/cpu.hh"
#include "core/engine.hh"
#include "mem/llc.hh"
#include "mem/nvm.hh"
#include "noc/mesh.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "workload/generators.hh"

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

TYPED_TEST(RaceBothProtocols, ConcurrentMissesFromOneCoreComplete)
{
    // The Cpu keeps one load in flight, but the protocol API takes
    // concurrent misses from one core: tests and layer drives issue
    // them.
    unsigned done = 0;
    for (unsigned i = 0; i < 3; ++i)
        this->proto.load(0, kAddr + i * lineBytes, [&](Cycle, StoreId) {
            ++done;
        });
    this->eq.runUntil([&] { return done == 3; });
    EXPECT_EQ(done, 3u);
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

// --- Requests a core keeps in flight ---------------------------------

/**
 * Forwards every request to an inner protocol and records, per core,
 * the most loads, stores and both that were ever awaiting completion.
 * The callers' completions wait in side tables keyed by ticket: a
 * completion cannot wrap another of its own type (docs/perf.md).
 */
class CountingProtocol : public CoherenceProtocol
{
  public:
    CountingProtocol(CoherenceProtocol &inner, unsigned cores)
        : inner_(inner), loads_(cores, 0), stores_(cores, 0)
    {
    }

    void
    load(CoreId core, Addr addr, LoadDone done) override
    {
        const std::uint64_t ticket = nextTicket_++;
        loadDone_.emplace(ticket, std::move(done));
        issued(core, loads_);
        inner_.load(core, addr, [this, core, ticket](Cycle at, StoreId v) {
            auto waiting = loadDone_.extract(ticket);
            --loads_[static_cast<unsigned>(core)];
            waiting.mapped()(at, v);
        });
    }

    void
    store(CoreId core, Addr addr, StoreId store, StoreDone done) override
    {
        const std::uint64_t ticket = nextTicket_++;
        storeDone_.emplace(ticket, std::move(done));
        issued(core, stores_);
        inner_.store(core, addr, store, [this, core, ticket](Cycle at) {
            auto waiting = storeDone_.extract(ticket);
            --stores_[static_cast<unsigned>(core)];
            waiting.mapped()(at);
        });
    }

    unsigned maxLoads = 0;
    unsigned maxStores = 0;
    unsigned maxBoth = 0;

  private:
    void
    issued(CoreId core, std::vector<unsigned> &kind)
    {
        const auto c = static_cast<unsigned>(core);
        ++kind[c];
        maxLoads = std::max(maxLoads, loads_[c]);
        maxStores = std::max(maxStores, stores_[c]);
        maxBoth = std::max(maxBoth, loads_[c] + stores_[c]);
    }

    CoherenceProtocol &inner_;
    std::vector<unsigned> loads_;
    std::vector<unsigned> stores_;
    std::uint64_t nextTicket_ = 0;
    std::unordered_map<std::uint64_t, LoadDone> loadDone_;
    std::unordered_map<std::uint64_t, StoreDone> storeDone_;
};

template <typename Protocol> struct CoreRequests : public ::testing::Test
{
};
TYPED_TEST_SUITE(CoreRequests, Protocols);

TYPED_TEST(CoreRequests, AtMostOneLoadAndOneStoreInFlight)
{
    // An in-order core blocks on a load and drains its store buffer
    // one store at a time; lock and barrier stores issue only once the
    // buffer is empty.  So a core never has more than one load and one
    // store in the memory system, and neither protocol bounds a core's
    // misses.
    std::uint64_t lockAcquires = 0, barriers = 0;
    for (const char *bench : {"radix", "lu_ncb", "ocean_cp", "dedup"}) {
        SystemConfig cfg;
        EventQueue eq;
        StatsRegistry stats;
        Mesh mesh(cfg, stats);
        Nvm nvm(cfg, eq, stats);
        Llc llc(cfg, nvm, stats);
        TypeParam inner(cfg, eq, mesh, llc, nvm, stats);
        CountingProtocol proto(inner, cfg.numCores);
        NoPersistEngine engine;
        SyncCoordinator sync(cfg.numCores, eq);
        const Workload w = generateByName(bench, cfg.numCores, 1, 0.05);
        std::vector<std::unique_ptr<Cpu>> cpus;
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            cpus.push_back(std::make_unique<Cpu>(static_cast<CoreId>(c),
                                                 cfg, eq, proto, engine,
                                                 sync, nullptr, stats));
            cpus.back()->setTrace(&w.perCore[c]);
            cpus.back()->start();
        }
        eq.run();
        for (const auto &cpu : cpus)
            ASSERT_TRUE(cpu->finished()) << bench;
        const char *why = ": a core keeps more requests in flight than "
                          "an in-order core; the protocols may need a "
                          "miss limit (an MSHR file) again";
        EXPECT_LE(proto.maxLoads, 1u) << bench << why;
        EXPECT_LE(proto.maxStores, 1u) << bench << why;
        EXPECT_EQ(proto.maxBoth, 2u)
            << bench << ": no load overlapped a store drain";
        lockAcquires += stats.get("cpu.lock_acquires");
        barriers += stats.get("cpu.barriers");
    }
    // The direct lock and barrier stores ran too.
    EXPECT_GT(lockAcquires, 0u);
    EXPECT_GT(barriers, 0u);
}

} // namespace
