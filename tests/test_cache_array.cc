/** @file Unit tests for the set-associative tag store. */

#include <gtest/gtest.h>

#include "mem/cache_array.hh"

using namespace tsoper;

namespace
{

using Array = CacheArray<int>;

} // namespace

TEST(CacheArray, InsertAndContains)
{
    Array a(4, 2);
    EXPECT_FALSE(a.contains(5));
    const auto r = a.insert(5);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.evicted);
    EXPECT_TRUE(a.contains(5));
    EXPECT_EQ(a.find(5), r.slot);
    EXPECT_EQ(a.size(), 1u);
}

TEST(CacheArray, ReinsertIsHit)
{
    Array a(4, 2);
    *a.insert(5).slot = 42;
    const auto r = a.insert(5);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(*r.slot, 42); // A hit keeps the payload.
    EXPECT_EQ(a.size(), 1u);
}

TEST(CacheArray, LruEviction)
{
    Array a(1, 2); // One set, 2 ways: lines collide.
    a.insert(10);
    a.insert(20);
    a.touch(a.find(10)); // 20 becomes LRU.
    const auto r = a.insert(30);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim, 20u);
    EXPECT_TRUE(a.contains(10));
    EXPECT_TRUE(a.contains(30));
}

TEST(CacheArray, PinnedLinesAreNotVictims)
{
    Array a(1, 2);
    a.insert(1);
    a.insert(2);
    a.setPinned(a.find(1), true);
    a.touch(a.find(2)); // 1 is LRU but pinned.
    const auto r = a.insert(3);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim, 2u);
}

TEST(CacheArray, NoSpaceWhenAllPinned)
{
    Array a(1, 2);
    a.insert(1);
    a.insert(2);
    a.setPinned(a.find(1), true);
    a.setPinned(a.find(2), true);
    const auto r = a.insert(3);
    EXPECT_TRUE(r.noSpace);
    EXPECT_EQ(r.slot, nullptr);
    EXPECT_FALSE(a.contains(3));
}

TEST(CacheArray, EraseFreesWay)
{
    Array a(1, 1);
    a.insert(7);
    EXPECT_TRUE(a.erase(7));
    EXPECT_FALSE(a.erase(7));
    const auto r = a.insert(8);
    EXPECT_FALSE(r.evicted);
}

TEST(CacheArray, SetIndexingSeparatesSets)
{
    Array a(4, 1);
    // Lines 0..3 map to different sets: no evictions.
    for (LineAddr l = 0; l < 4; ++l)
        EXPECT_FALSE(a.insert(l).evicted);
    EXPECT_EQ(a.size(), 4u);
    // Line 4 collides with line 0 only.
    const auto r = a.insert(4);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim, 0u);
}

TEST(CacheArray, SetShiftSkipsBankBits)
{
    Array a(4, 1, /*setShift=*/3);
    // With shift 3, lines 0 and 1 share set 0.
    a.insert(0);
    const auto r = a.insert(1);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim, 0u);
}

TEST(CacheArray, PowerOfTwoSetsEnforced)
{
    EXPECT_THROW(Array(3, 2), std::logic_error);
}

TEST(CacheArray, FullSetHandsBackVictimLineAndPayload)
{
    Array a(1, 2);
    *a.insert(10).slot = 100;
    *a.insert(20).slot = 200;
    a.touch(a.find(20)); // 10 becomes LRU.
    const auto r = a.insert(30);
    ASSERT_TRUE(r.evicted);
    EXPECT_EQ(r.victim, 10u);
    EXPECT_EQ(r.victimPayload, 100);
    // The reused way holds the new line with a fresh payload.
    EXPECT_EQ(a.find(30), r.slot);
    EXPECT_EQ(*r.slot, 0);
    EXPECT_FALSE(a.contains(10));
    EXPECT_EQ(*a.find(20), 200);
    EXPECT_EQ(a.size(), 2u);
}

TEST(CacheArray, PinnedWaysKeepPayloadAndAreNeverVictims)
{
    Array a(1, 3);
    *a.insert(1).slot = 10;
    *a.insert(2).slot = 20;
    *a.insert(3).slot = 30;
    a.setPinned(a.find(1), true);
    a.setPinned(a.find(2), true);
    // Every further line can only take the one unpinned way, however
    // stale the pinned lines become.
    for (LineAddr l = 4; l < 12; ++l) {
        const auto r = a.insert(l);
        ASSERT_TRUE(r.evicted) << l;
        EXPECT_EQ(r.victim, l - 1) << l;
    }
    // A touch refreshes recency and keeps the pin.
    a.touch(a.find(1));
    EXPECT_TRUE(a.isPinned(a.find(1)));
    EXPECT_EQ(a.insert(12).victim, 11u);
    EXPECT_EQ(*a.find(1), 10);
    EXPECT_EQ(*a.find(2), 20);
    a.setPinned(a.find(2), false);
    EXPECT_EQ(a.insert(13).victim, 2u); // Now the LRU unpinned way.
}

TEST(CacheArray, EraseThenInsertReusesTheWay)
{
    Array a(1, 2);
    int *first = a.insert(7).slot;
    *first = 70;
    *a.insert(8).slot = 80;
    EXPECT_TRUE(a.erase(7));
    const auto r = a.insert(9);
    EXPECT_FALSE(r.evicted);
    EXPECT_EQ(r.slot, first);
    EXPECT_EQ(*r.slot, 0);
    EXPECT_EQ(*a.find(8), 80);
    EXPECT_EQ(a.size(), 2u);
}

TEST(CacheArray, FreshArrayReportsEveryLineAbsent)
{
    // Fill an array and drop it first, so the next one is likely carved
    // from the same memory with stale tags: a fresh array must still
    // read nothing but its zeroed valid masks.
    {
        Array old(64, 8);
        for (LineAddr l = 0; l < 64 * 8; ++l)
            *old.insert(l).slot = 1;
    }
    Array a(64, 8);
    for (LineAddr l = 0; l < 64 * 8; ++l)
        EXPECT_FALSE(a.contains(l)) << l;
    EXPECT_EQ(a.size(), 0u);
}
