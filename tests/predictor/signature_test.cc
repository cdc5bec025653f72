/** @file Unit and property tests for trace signatures and counters. */

#include <gtest/gtest.h>

#include "predictor/signature.hh"
#include "sim/rng.hh"

namespace ltp
{
namespace
{

TEST(Signature, InitDependsOnPc)
{
    auto a = Signature::init(0x1000, 30);
    auto b = Signature::init(0x1004, 30);
    EXPECT_NE(a, b);
}

TEST(Signature, ExtendChangesValue)
{
    auto a = Signature::init(0x1000, 30);
    auto b = a.extend(0x1004);
    EXPECT_NE(a, b);
}

TEST(Signature, TruncatedToRequestedBits)
{
    for (unsigned bits : {6u, 11u, 13u, 30u}) {
        auto s = Signature::init(0xdeadbeef, bits);
        EXPECT_LT(s.value(), std::uint64_t(1) << bits) << bits;
        EXPECT_EQ(s.bits(), bits);
    }
}

TEST(Signature, AdditionIsCommutative)
{
    // Truncated addition is order-insensitive — an inherent (documented)
    // property of the paper's encoding.
    auto a = Signature::init(0x10, 13).extend(0x20).extend(0x30);
    auto b = Signature::init(0x10, 13).extend(0x30).extend(0x20);
    EXPECT_EQ(a, b);
}

TEST(Signature, SameTraceSameSignatureProperty)
{
    Rng rng(17);
    for (int t = 0; t < 100; ++t) {
        Pc start = rng.next();
        auto a = Signature::init(start, 13);
        auto b = Signature::init(start, 13);
        for (int i = 0; i < 8; ++i) {
            Pc pc = rng.next();
            a = a.extend(pc);
            b = b.extend(pc);
        }
        EXPECT_EQ(a, b);
    }
}

TEST(Signature, PrefixDiffersFromFullTrace)
{
    // {PC} must differ from {PC, PC} (the tomcatv outer/inner case) at
    // reasonable widths.
    auto outer = Signature::init(0x2000, 13);
    auto inner = Signature::init(0x2000, 13).extend(0x2000);
    EXPECT_NE(outer, inner);
}

TEST(Signature, DifferentWidthsNeverEqual)
{
    auto a = Signature::init(0x10, 13);
    auto b = Signature::init(0x10, 30);
    EXPECT_NE(a, b);
}

TEST(Signature, MixSpreadsAlignedPcs)
{
    // Word-aligned synthetic PCs must still produce well-spread low
    // bits (the reason mix() exists).
    auto a = Signature::init(0x4000, 13);
    auto b = a.extend(0x4000);
    auto c = b.extend(0x4000);
    EXPECT_NE(a.value(), b.value());
    EXPECT_NE(b.value(), c.value());
    EXPECT_NE(a.value(), c.value());
}

TEST(Signature, RotateXorIsOrderSensitive)
{
    // The alternative encoding distinguishes permuted traces that
    // truncated addition cannot.
    auto ab = Signature::init(0x10, 13, SigEncoding::RotateXor)
                  .extend(0x20)
                  .extend(0x30);
    auto ba = Signature::init(0x10, 13, SigEncoding::RotateXor)
                  .extend(0x30)
                  .extend(0x20);
    EXPECT_NE(ab, ba);
}

TEST(Signature, RotateXorDeterministic)
{
    auto a = Signature::init(0x10, 13, SigEncoding::RotateXor)
                 .extend(0x20);
    auto b = Signature::init(0x10, 13, SigEncoding::RotateXor)
                 .extend(0x20);
    EXPECT_EQ(a, b);
}

TEST(Signature, RotateXorStaysTruncated)
{
    auto s = Signature::init(~0ull, 6, SigEncoding::RotateXor)
                 .extend(0x123456789)
                 .extend(0x42);
    EXPECT_LT(s.value(), 64u);
}

TEST(ConfidenceCounter, DefaultNotSaturated)
{
    ConfidenceCounter c; // initial 2, max 3
    EXPECT_FALSE(c.saturated());
    EXPECT_TRUE(c.atLeast(2));
}

TEST(ConfidenceCounter, StrengthenSaturates)
{
    ConfidenceCounter c(0);
    for (int i = 0; i < 10; ++i)
        c.strengthen();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.saturated());
}

TEST(ConfidenceCounter, WeakenClears)
{
    ConfidenceCounter c(3);
    c.weaken();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_FALSE(c.atLeast(1));
}

TEST(ConfidenceCounter, RecoveryTakesMaxSteps)
{
    ConfidenceCounter c(3);
    c.weaken();
    c.strengthen();
    c.strengthen();
    EXPECT_FALSE(c.saturated());
    c.strengthen();
    EXPECT_TRUE(c.saturated());
}

} // namespace
} // namespace ltp
