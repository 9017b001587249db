/**
 * @file
 * Unit and property tests for the status bit vectors (§4.1).
 */

#include <gtest/gtest.h>

#include "base/bitvector.hh"
#include "base/rng.hh"

namespace mmr
{
namespace
{

TEST(BitVector, StartsAllClear)
{
    BitVector v(100);
    EXPECT_EQ(v.size(), 100u);
    EXPECT_EQ(v.count(), 0u);
    EXPECT_TRUE(v.none());
    EXPECT_FALSE(v.any());
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_FALSE(v.test(i));
}

TEST(BitVector, SetClearAssign)
{
    BitVector v(70);
    v.set(0);
    v.set(63);
    v.set(64);
    v.set(69);
    EXPECT_TRUE(v.test(0));
    EXPECT_TRUE(v.test(63));
    EXPECT_TRUE(v.test(64));
    EXPECT_TRUE(v.test(69));
    EXPECT_EQ(v.count(), 4u);
    v.clear(63);
    EXPECT_FALSE(v.test(63));
    v.assign(5, true);
    EXPECT_TRUE(v.test(5));
    v.assign(5, false);
    EXPECT_FALSE(v.test(5));
}

TEST(BitVector, SetAllRespectsSize)
{
    BitVector v(67);
    v.setAll();
    EXPECT_EQ(v.count(), 67u);
    v.clearAll();
    EXPECT_EQ(v.count(), 0u);
}

TEST(BitVector, FindFirstAcrossWordBoundaries)
{
    BitVector v(200);
    EXPECT_EQ(v.findFirst(), 200u);
    v.set(0);
    v.set(63);
    v.set(64);
    v.set(128);
    v.set(199);
    EXPECT_EQ(v.findFirst(), 0u);
    EXPECT_EQ(v.findNext(0), 63u);
    EXPECT_EQ(v.findNext(63), 64u);
    EXPECT_EQ(v.findNext(64), 128u);
    EXPECT_EQ(v.findNext(128), 199u);
    EXPECT_EQ(v.findNext(199), 200u);
    EXPECT_EQ(v.findFirst(65), 128u);
}

TEST(BitVector, SetBitsRoundTrip)
{
    BitVector v(130);
    const std::vector<std::size_t> idx{1, 2, 63, 64, 65, 127, 129};
    for (auto i : idx)
        v.set(i);
    EXPECT_EQ(v.setBits(), idx);
}

TEST(BitVector, BooleanAlgebra)
{
    BitVector a(96), b(96);
    a.set(1);
    a.set(50);
    a.set(90);
    b.set(50);
    b.set(91);

    const BitVector both = a & b;
    EXPECT_EQ(both.setBits(), (std::vector<std::size_t>{50}));

    const BitVector either = a | b;
    EXPECT_EQ(either.setBits(),
              (std::vector<std::size_t>{1, 50, 90, 91}));

    const BitVector diff = a ^ b;
    EXPECT_EQ(diff.setBits(), (std::vector<std::size_t>{1, 90, 91}));

    BitVector anot = a;
    anot.andNot(b);
    EXPECT_EQ(anot.setBits(), (std::vector<std::size_t>{1, 90}));
}

TEST(BitVector, InvertKeepsTailClear)
{
    BitVector v(66);
    v.set(3);
    v.invert();
    EXPECT_FALSE(v.test(3));
    EXPECT_EQ(v.count(), 65u);
    // Inverting twice restores the original.
    v.invert();
    EXPECT_EQ(v.setBits(), (std::vector<std::size_t>{3}));
}

TEST(BitVector, Equality)
{
    BitVector a(40), b(40), c(41);
    a.set(7);
    b.set(7);
    EXPECT_TRUE(a == b);
    b.set(8);
    EXPECT_FALSE(a == b);
    EXPECT_FALSE(a == c);
}

TEST(BitVector, ResizePreservesContent)
{
    BitVector v(10);
    v.set(9);
    v.resize(100);
    EXPECT_TRUE(v.test(9));
    EXPECT_EQ(v.count(), 1u);
    v.set(99);
    v.resize(50);
    EXPECT_TRUE(v.test(9));
    EXPECT_EQ(v.count(), 1u);
}

TEST(BitVector, EmptyVector)
{
    BitVector v;
    EXPECT_EQ(v.size(), 0u);
    EXPECT_TRUE(v.none());
    EXPECT_EQ(v.findFirst(), 0u);
}

TEST(BitVectorDeath, OutOfRangeAccessPanics)
{
    BitVector v(8);
    EXPECT_DEATH(v.set(8), "out of range");
    EXPECT_DEATH(v.test(100), "out of range");
}

TEST(BitVectorDeath, SizeMismatchPanics)
{
    BitVector a(8), b(9);
    EXPECT_DEATH(a &= b, "size mismatch");
}

/** Property: algebra on random vectors matches per-bit evaluation. */
class BitVectorProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BitVectorProperty, AlgebraMatchesPerBitSemantics)
{
    const std::size_t n = GetParam();
    Rng rng(n * 2654435761u + 17);
    BitVector a(n), b(n);
    std::vector<bool> ra(n), rb(n);
    for (std::size_t i = 0; i < n; ++i) {
        ra[i] = rng.chance(0.4);
        rb[i] = rng.chance(0.4);
        a.assign(i, ra[i]);
        b.assign(i, rb[i]);
    }
    const BitVector iand = a & b;
    const BitVector ior = a | b;
    const BitVector ixor = a ^ b;
    std::size_t expect_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(iand.test(i), ra[i] && rb[i]);
        EXPECT_EQ(ior.test(i), ra[i] || rb[i]);
        EXPECT_EQ(ixor.test(i), ra[i] != rb[i]);
        expect_count += ra[i];
    }
    EXPECT_EQ(a.count(), expect_count);

    // findFirst/findNext enumerate exactly the set bits.
    std::vector<std::size_t> enumerated;
    for (std::size_t i = a.findFirst(); i < a.size(); i = a.findNext(i))
        enumerated.push_back(i);
    EXPECT_EQ(enumerated, a.setBits());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVectorProperty,
                         ::testing::Values(1, 7, 63, 64, 65, 127, 128,
                                           129, 255, 256, 1000));

// ---------------------------------------------------------------------
// Word-boundary behaviour of the word-at-a-time scan (forEachSet) and
// the word-parallel AND, which the link scheduler's eligibility walk
// depends on.  Sizes straddle the 64-bit word edge on both sides.
// ---------------------------------------------------------------------

class BitVectorWordScan : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BitVectorWordScan, ForEachSetVisitsExactlyTheSetBits)
{
    const std::size_t n = GetParam();
    BitVector v(n);
    // A pattern that crosses every word boundary: both edges of each
    // word, plus a stride-3 comb.
    std::vector<std::size_t> expect;
    for (std::size_t i = 0; i < n; ++i) {
        const bool edge = (i % 64 == 0) || (i % 64 == 63);
        if (edge || i % 3 == 0) {
            v.set(i);
            expect.push_back(i);
        }
    }
    std::vector<std::size_t> got;
    v.forEachSet([&](std::size_t i) { got.push_back(i); });
    EXPECT_EQ(got, expect);
    EXPECT_EQ(v.count(), expect.size());
}

TEST_P(BitVectorWordScan, ForEachSetAndMatchesPerBitIntersection)
{
    const std::size_t n = GetParam();
    BitVector a(n), b(n);
    // Masks that only overlap across word boundaries: a takes the top
    // two bits of every word, b the bottom two plus every 5th bit.
    std::vector<std::size_t> expect;
    for (std::size_t i = 0; i < n; ++i) {
        const bool ina = (i % 64 >= 62) || (i % 7 == 0);
        const bool inb = (i % 64 <= 1) || (i % 5 == 0);
        if (ina)
            a.set(i);
        if (inb)
            b.set(i);
        if (ina && inb)
            expect.push_back(i);
    }
    const BitVector both = a & b;
    std::vector<std::size_t> got;
    both.forEachSet([&](std::size_t i) { got.push_back(i); });
    EXPECT_EQ(got, expect);
}

TEST_P(BitVectorWordScan, LastBitOfVectorIsReachable)
{
    const std::size_t n = GetParam();
    BitVector v(n);
    v.set(n - 1);
    std::size_t visits = 0, last = 0;
    v.forEachSet([&](std::size_t i) {
        ++visits;
        last = i;
    });
    EXPECT_EQ(visits, 1u);
    EXPECT_EQ(last, n - 1);
    EXPECT_EQ(v.findFirst(), n - 1);
    EXPECT_EQ(v.findNext(n - 1), n);
}

INSTANTIATE_TEST_SUITE_P(WordEdges, BitVectorWordScan,
                         ::testing::Values(63, 64, 65, 256));

} // namespace
} // namespace mmr
