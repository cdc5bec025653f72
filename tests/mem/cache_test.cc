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

/** Resident blocks, counted through the DSI candidate walk. */
unsigned
residentCount(const Cache &c)
{
    unsigned n = 0;
    c.forEachResident([&](Addr, const CacheLine &) { ++n; });
    return n;
}

TEST(CacheUnbounded, InsertAndFind)
{
    Cache c(32);
    CacheLine &inserted = c.insert(0x100, CacheState::Shared);
    CacheLine *l = c.find(0x110); // same block
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l, &inserted);
    EXPECT_EQ(l->state, CacheState::Shared);
    EXPECT_EQ(residentCount(c), 1u);
}

TEST(CacheUnbounded, UpgradeInPlace)
{
    Cache c(32);
    c.insert(0x100, CacheState::Shared);
    c.find(0x100)->version = 3;
    c.insert(0x100, CacheState::Exclusive);
    EXPECT_EQ(c.state(0x100), CacheState::Exclusive);
    EXPECT_EQ(c.find(0x100)->version, 3u);
    EXPECT_EQ(residentCount(c), 1u);
}

TEST(CacheUnbounded, InvalidateRemovesButKeepsMetadata)
{
    Cache c(32);
    c.insert(0x100, CacheState::Exclusive);
    c.find(0x100)->version = 7;
    Cache::invalidate(*c.find(0x100));
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
    c.find(0x100)->version = 7;
    Cache::invalidate(*c.find(0x100));
    c.insert(0x100, CacheState::Exclusive);
    CacheLine *l = c.find(0x100);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->state, CacheState::Exclusive);
    // A newly resident line starts at version 0: the fill stamps it.
    EXPECT_EQ(l->version, 0u);
    EXPECT_EQ(residentCount(c), 1u);
}

TEST(CacheUnbounded, NeverEvicts)
{
    Cache c(32);
    for (Addr a = 0; a < 10000 * 32; a += 32)
        c.insert(a, CacheState::Shared);
    EXPECT_EQ(residentCount(c), 10000u);
    EXPECT_EQ(c.state(0), CacheState::Shared);
}

TEST(CacheUnbounded, ForEachResidentSkipsInvalid)
{
    Cache c(32);
    c.insert(0x100, CacheState::Shared);
    c.insert(0x200, CacheState::Exclusive);
    Cache::invalidate(*c.find(0x100));
    unsigned count = 0;
    c.forEachResident([&](Addr blk, const CacheLine &l) {
        EXPECT_EQ(blk, 0x200u);
        EXPECT_EQ(l.state, CacheState::Exclusive);
        ++count;
    });
    EXPECT_EQ(count, 1u);
}

} // namespace
} // namespace ltp
