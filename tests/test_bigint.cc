/**
 * @file
 * Unit tests for the fixed-width BigInt layer.
 */

#include <gtest/gtest.h>

#include <random>

#include "ff/bigint.hh"

using namespace gzkp::ff;

using B4 = BigInt<4>;
using B2 = BigInt<2>;

TEST(BigInt, ZeroAndOne)
{
    EXPECT_TRUE(B4::zero().isZero());
    EXPECT_FALSE(B4::one().isZero());
    EXPECT_TRUE(B4::one().isOdd());
    EXPECT_EQ(B4::one().numBits(), 1u);
    EXPECT_EQ(B4::zero().numBits(), 0u);
}

TEST(BigInt, HexRoundTrip)
{
    const char *h = "0xdeadbeef00112233445566778899aabb";
    B4 v = B4::fromHex(h);
    EXPECT_EQ(v.toHex(), h);
    EXPECT_EQ(B4::fromHex("0x0").toHex(), "0x0");
    EXPECT_EQ(B4::fromHex("00ff").toHex(), "0xff");
}

TEST(BigInt, HexRejectsBadInput)
{
    EXPECT_THROW(B4::fromHex(""), std::invalid_argument);
    EXPECT_THROW(B4::fromHex("0xzz"), std::invalid_argument);
    // 65 hex digits do not fit 4 limbs.
    std::string too_big(65, 'f');
    EXPECT_THROW(B4::fromHex(too_big), std::invalid_argument);
}

TEST(BigInt, AddSubCarryChains)
{
    B4 max;
    for (auto &l : max.limbs)
        l = ~0ull;
    B4 out;
    EXPECT_EQ(B4::add(max, B4::one(), out), 1u); // full wrap
    EXPECT_TRUE(out.isZero());
    EXPECT_EQ(B4::sub(B4::zero(), B4::one(), out), 1u); // borrow
    EXPECT_EQ(out, max);

    // Carry propagates through middle limbs.
    B4 a = B4::fromHex("0xffffffffffffffffffffffffffffffff");
    EXPECT_EQ(B4::add(a, B4::one(), out), 0u);
    EXPECT_EQ(out.toHex(), "0x100000000000000000000000000000000");
}

TEST(BigInt, CompareOrdering)
{
    B4 a = B4::fromUint64(5);
    B4 b = B4::fromHex("0x10000000000000000"); // 2^64
    EXPECT_LT(a, b);
    EXPECT_GT(b, a);
    EXPECT_EQ(a.cmp(a), 0);
    EXPECT_LE(a, a);
}

TEST(BigInt, MulWideKnownValues)
{
    B2 a = B2::fromHex("0xffffffffffffffff");
    auto p = B2::mulWide(a, a);
    // (2^64-1)^2 = 2^128 - 2^65 + 1
    EXPECT_EQ(p.toHex(), "0xfffffffffffffffe0000000000000001");
    EXPECT_TRUE(B2::mulWide(a, B2::zero()).isZero());
}

TEST(BigInt, ShiftsAreInverse)
{
    std::mt19937_64 rng(1);
    for (int i = 0; i < 50; ++i) {
        B4 v = B4::random(rng);
        std::size_t s = rng() % 130;
        // shr(shl(v)) loses only the bits pushed off the top.
        B4 round = v.shl(s).shr(s);
        for (std::size_t bit = 0; bit + s < 256; ++bit)
            EXPECT_EQ(round.bit(bit), v.bit(bit));
    }
}

TEST(BigInt, BitWindows)
{
    B4 v = B4::fromHex("0xf0f0f0f0");
    EXPECT_EQ(v.bits(0, 8), 0xf0u);
    EXPECT_EQ(v.bits(4, 8), 0x0fu);
    EXPECT_EQ(v.bits(4, 16), 0x0f0fu);
    EXPECT_EQ(v.bits(250, 10), 0u); // out of range reads as zero
}

TEST(BigInt, BitWindowAcrossLimbBoundary)
{
    B4 v;
    v.limbs[0] = 0x8000000000000000ull;
    v.limbs[1] = 0x1;
    EXPECT_EQ(v.bits(63, 2), 3u);
    EXPECT_EQ(v.bits(62, 4), 6u);
}

template <typename B>
class BigIntTest : public ::testing::Test
{
};

using BigIntWidths =
    ::testing::Types<BigInt<1>, BigInt<4>, BigInt<6>, BigInt<12>>;
TYPED_TEST_SUITE(BigIntTest, BigIntWidths);

// bits() is a two-limb shift and mask; the reference reads one bit at
// a time. Every start bit is covered, so windows straddle each limb
// boundary and run past the top (those bits read as 0).
TYPED_TEST(BigIntTest, BitsMatchesBitLoop)
{
    using B = TypeParam;
    auto bit_loop = [](const B &v, std::size_t lo, std::size_t width) {
        std::uint64_t out = 0;
        for (std::size_t i = 0; i < width; ++i)
            if (v.bit(lo + i))
                out |= std::uint64_t(1) << i;
        return out;
    };
    std::mt19937_64 rng(2024);
    B ones;
    for (auto &l : ones.limbs)
        l = ~std::uint64_t(0);
    for (const B &v : {B::random(rng), B::random(rng), ones, B::one()}) {
        for (std::size_t width : {1, 10, 13, 52, 64}) {
            for (std::size_t lo = 0; lo < B::kBits; ++lo)
                ASSERT_EQ(v.bits(lo, width), bit_loop(v, lo, width))
                    << "lo=" << lo << " width=" << width;
        }
    }
}

TEST(BigInt, TrailingZerosAndNumBits)
{
    EXPECT_EQ(B4::zero().countTrailingZeros(), 256u);
    B4 v = B4::fromHex("0x100");
    EXPECT_EQ(v.countTrailingZeros(), 8u);
    EXPECT_EQ(v.numBits(), 9u);
    B4 top;
    top.limbs[3] = 1ull << 63;
    EXPECT_EQ(top.numBits(), 256u);
    EXPECT_EQ(top.countTrailingZeros(), 255u);
}

TEST(BigInt, Resize)
{
    B4 v;
    v.limbs = {1, 2, 3, 4};
    auto small = v.resize<2>(); // drops limbs 2 and 3
    EXPECT_EQ(small.limbs[0], 1u);
    EXPECT_EQ(small.limbs[1], 2u);
    EXPECT_EQ(small.toHex(), "0x20000000000000001");
    auto big = v.resize<6>(); // zero-extends
    EXPECT_EQ(big.toHex(), v.toHex());
    EXPECT_EQ(big.limbs[5], 0u);
}

TEST(BigInt, SetBit)
{
    B4 v;
    v.setBit(0);
    v.setBit(64);
    v.setBit(255);
    EXPECT_TRUE(v.bit(0));
    EXPECT_TRUE(v.bit(64));
    EXPECT_TRUE(v.bit(255));
    EXPECT_FALSE(v.bit(1));
}
