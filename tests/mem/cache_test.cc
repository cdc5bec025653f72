/** @file Unit tests for the cache tag store. */

#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace ltp
{
namespace
{

TEST(CacheUnbounded, MissOnEmpty)
{
    Cache c(32);
    EXPECT_EQ(c.find(0x100), nullptr);
    EXPECT_EQ(c.state(0x100), CacheState::Invalid);
}

TEST(CacheUnbounded, InsertAndFind)
{
    Cache c(32);
    EXPECT_FALSE(c.insert(0x100, CacheState::Shared).has_value());
    CacheLine *l = c.find(0x110); // same block
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->state, CacheState::Shared);
    EXPECT_EQ(c.residentBlocks(), 1u);
}

TEST(CacheUnbounded, UpgradeInPlace)
{
    Cache c(32);
    c.insert(0x100, CacheState::Shared);
    c.insert(0x100, CacheState::Exclusive);
    EXPECT_EQ(c.state(0x100), CacheState::Exclusive);
    EXPECT_EQ(c.residentBlocks(), 1u);
}

TEST(CacheUnbounded, InvalidateRemovesButKeepsMetadata)
{
    Cache c(32);
    c.insert(0x100, CacheState::Exclusive);
    c.find(0x100)->version = 7;
    c.invalidate(0x100);
    EXPECT_EQ(c.find(0x100), nullptr);
    // The DSI version survives for the next request to report.
    CacheLine *any = c.findAny(0x100);
    ASSERT_NE(any, nullptr);
    EXPECT_EQ(any->state, CacheState::Invalid);
    EXPECT_EQ(any->version, 7u);
}

TEST(CacheUnbounded, ReinsertMakesLineResident)
{
    Cache c(32);
    c.insert(0x100, CacheState::Shared);
    c.invalidate(0x100);
    c.insert(0x100, CacheState::Exclusive);
    CacheLine *l = c.find(0x100);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->state, CacheState::Exclusive);
    EXPECT_EQ(c.residentBlocks(), 1u);
}

TEST(CacheUnbounded, Downgrade)
{
    Cache c(32);
    c.insert(0x100, CacheState::Exclusive);
    c.downgrade(0x100);
    EXPECT_EQ(c.state(0x100), CacheState::Shared);
    // Downgrading a Shared line is a no-op.
    c.downgrade(0x100);
    EXPECT_EQ(c.state(0x100), CacheState::Shared);
}

TEST(CacheUnbounded, NeverEvicts)
{
    Cache c(32);
    for (Addr a = 0; a < 10000 * 32; a += 32)
        EXPECT_FALSE(c.insert(a, CacheState::Shared).has_value());
    EXPECT_EQ(c.residentBlocks(), 10000u);
}

TEST(CacheUnbounded, ForEachResidentSkipsInvalid)
{
    Cache c(32);
    c.insert(0x100, CacheState::Shared);
    c.insert(0x200, CacheState::Exclusive);
    c.invalidate(0x100);
    unsigned count = 0;
    c.forEachResident([&](Addr blk, const CacheLine &l) {
        EXPECT_EQ(blk, 0x200u);
        EXPECT_EQ(l.state, CacheState::Exclusive);
        ++count;
    });
    EXPECT_EQ(count, 1u);
}

TEST(CacheFinite, EvictsLruWhenSetFull)
{
    Cache c(32, /*num_sets=*/1, /*ways=*/2);
    c.insert(0x000, CacheState::Shared);
    c.insert(0x020, CacheState::Exclusive);
    // Touch 0x000 so 0x020 becomes LRU.
    EXPECT_NE(c.find(0x000), nullptr);
    c.insert(0x040, CacheState::Shared); // must evict
    auto victim = c.insert(0x060, CacheState::Shared);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(c.residentBlocks(), 2u);
}

TEST(CacheFinite, VictimCarriesState)
{
    Cache c(32, 1, 1);
    c.insert(0x000, CacheState::Exclusive);
    auto victim = c.insert(0x020, CacheState::Shared);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x000u);
    EXPECT_EQ(victim->state, CacheState::Exclusive);
}

TEST(CacheFinite, DifferentSetsDoNotConflict)
{
    Cache c(32, 2, 1);
    // Block 0 -> set 0, block 1 -> set 1.
    EXPECT_FALSE(c.insert(0x000, CacheState::Shared).has_value());
    EXPECT_FALSE(c.insert(0x020, CacheState::Shared).has_value());
    EXPECT_EQ(c.residentBlocks(), 2u);
}

TEST(CacheFinite, LruOrderRespectsTouches)
{
    Cache c(32, 1, 2);
    c.insert(0x000, CacheState::Shared);
    c.insert(0x020, CacheState::Shared);
    EXPECT_NE(c.find(0x000), nullptr); // 0x020 now LRU
    auto victim = c.insert(0x040, CacheState::Shared);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x020u);
    EXPECT_NE(c.find(0x000), nullptr);
    EXPECT_EQ(c.find(0x020), nullptr);
}

} // namespace
} // namespace ltp
