/** @file Unit tests for the execution store log. */

#include <gtest/gtest.h>

#include "sim/store_log.hh"

using namespace tsoper;

TEST(StoreLog, RecordsCommitsInProgramOrder)
{
    StoreLog log(2);
    log.storeIssued(0, makeStoreId(0, 0));
    log.storeCommitted(0, 0x100, makeStoreId(0, 0));
    log.storeIssued(0, makeStoreId(0, 1));
    log.storeCommitted(0, 0x108, makeStoreId(0, 1));
    EXPECT_EQ(log.storesOf(0), 2u);
    EXPECT_EQ(log.totalStores(), 2u);
    const auto *rec = log.find(makeStoreId(0, 1));
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->addr, 0x108u);
}

TEST(StoreLog, OutOfOrderCommitPanics)
{
    StoreLog log(1);
    EXPECT_THROW(log.storeCommitted(0, 0x0, makeStoreId(0, 5)),
                 std::logic_error);
}

TEST(StoreLog, WordChainTracksSameWordOrder)
{
    StoreLog log(2);
    log.storeCommitted(0, 0x100, makeStoreId(0, 0));
    log.storeCommitted(1, 0x100, makeStoreId(1, 0));
    log.storeCommitted(0, 0x108, makeStoreId(0, 1));
    const auto &chain = log.wordChain(0x100);
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain[0], makeStoreId(0, 0));
    EXPECT_EQ(chain[1], makeStoreId(1, 0));
    EXPECT_EQ(log.find(makeStoreId(1, 0))->wordChainIndex, 1u);
}

TEST(StoreLog, RfAttachesToNextIssuedStore)
{
    StoreLog log(2);
    // Core 1 wrote; core 0 loads it, then stores.
    log.storeCommitted(1, 0x200, makeStoreId(1, 0));
    log.loadObserved(0, 0x200, makeStoreId(1, 0));
    log.storeIssued(0, makeStoreId(0, 0));
    log.storeCommitted(0, 0x300, makeStoreId(0, 0));
    const auto *rec = log.find(makeStoreId(0, 0));
    ASSERT_NE(rec, nullptr);
    ASSERT_EQ(log.rfPreds(*rec).size(), 1u);
    EXPECT_EQ(log.rfPreds(*rec)[0], makeStoreId(1, 0));
}

TEST(StoreLog, OwnStoreObservationIsNotRf)
{
    StoreLog log(1);
    log.storeCommitted(0, 0x100, makeStoreId(0, 0));
    log.loadObserved(0, 0x100, makeStoreId(0, 0));
    log.storeIssued(0, makeStoreId(0, 1));
    log.storeCommitted(0, 0x108, makeStoreId(0, 1));
    EXPECT_TRUE(log.rfPreds(*log.find(makeStoreId(0, 1))).empty());
}

TEST(StoreLog, RfDoesNotLeakToLaterStores)
{
    StoreLog log(2);
    log.storeCommitted(1, 0x200, makeStoreId(1, 0));
    log.loadObserved(0, 0x200, makeStoreId(1, 0));
    log.storeIssued(0, makeStoreId(0, 0));
    log.storeCommitted(0, 0x300, makeStoreId(0, 0));
    log.storeIssued(0, makeStoreId(0, 1));
    log.storeCommitted(0, 0x308, makeStoreId(0, 1));
    EXPECT_TRUE(log.rfPreds(*log.find(makeStoreId(0, 1))).empty());
}

TEST(StoreLog, SfrBoundariesStampStores)
{
    StoreLog log(1);
    log.storeCommitted(0, 0x0, makeStoreId(0, 0));
    log.sfrBoundary(0);
    log.storeCommitted(0, 0x8, makeStoreId(0, 1));
    EXPECT_EQ(log.find(makeStoreId(0, 0))->sfrIndex, 0u);
    EXPECT_EQ(log.find(makeStoreId(0, 1))->sfrIndex, 1u);
}

TEST(StoreLog, DisabledLogRecordsNothing)
{
    StoreLog log(1);
    log.setEnabled(false);
    log.storeCommitted(0, 0x0, makeStoreId(0, 0));
    EXPECT_EQ(log.totalStores(), 0u);
    EXPECT_EQ(log.find(makeStoreId(0, 0)), nullptr);
}

TEST(StoreLog, UntouchedLoadIsIgnored)
{
    StoreLog log(1);
    log.loadObserved(0, 0x100, invalidStore);
    log.storeIssued(0, makeStoreId(0, 0));
    log.storeCommitted(0, 0x100, makeStoreId(0, 0));
    EXPECT_TRUE(log.rfPreds(*log.find(makeStoreId(0, 0))).empty());
}
