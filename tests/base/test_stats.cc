/**
 * @file
 * Unit tests for the streaming statistics substrate.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "base/rng.hh"
#include "base/stats.hh"

namespace mmr
{
namespace
{

TEST(StreamStat, EmptyIsZero)
{
    StreamStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.sum(), 0.0);
}

TEST(StreamStat, BasicMoments)
{
    StreamStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
    // Sample variance of that classic set is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StreamStat, SingleSampleVarianceZero)
{
    StreamStat s;
    s.add(3.5);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.mean(), 3.5);
}

TEST(StreamStat, MergeMatchesConcatenation)
{
    Rng rng(3);
    StreamStat whole, a, b;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(5, 2);
        whole.add(x);
        (i % 3 == 0 ? a : b).add(x);
    }
    StreamStat merged = a;
    merged.merge(b);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(merged.variance(), whole.variance(), 1e-7);
    EXPECT_EQ(merged.min(), whole.min());
    EXPECT_EQ(merged.max(), whole.max());
}

TEST(StreamStat, MergeWithEmpty)
{
    StreamStat a, b;
    a.add(1.0);
    a.add(2.0);
    StreamStat c = a;
    c.merge(b); // no-op
    EXPECT_EQ(c.count(), 2u);
    b.merge(a); // adopt
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(StreamStat, ResetForgets)
{
    StreamStat s;
    s.add(10.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(PercentileSketch, ExactWhenUnderCapacity)
{
    PercentileSketch s(1000);
    for (int i = 100; i >= 1; --i)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(50), 50.5, 0.5);
    EXPECT_NEAR(s.percentile(99), 99.0, 1.0);
}

TEST(PercentileSketch, ReservoirStaysRepresentative)
{
    PercentileSketch s(512);
    Rng rng(9);
    for (int i = 0; i < 100000; ++i)
        s.add(rng.uniform() * 1000.0);
    EXPECT_EQ(s.count(), 100000u);
    EXPECT_NEAR(s.percentile(50), 500.0, 60.0);
    EXPECT_NEAR(s.percentile(90), 900.0, 60.0);
}

TEST(PercentileSketch, EmptyIsZero)
{
    PercentileSketch s;
    EXPECT_EQ(s.percentile(50), 0.0);
}

TEST(RatioStat, Basics)
{
    RatioStat r;
    EXPECT_EQ(r.ratio(), 0.0);
    r.addHit();
    r.addMiss();
    r.addMiss();
    r.addHit(2);
    EXPECT_EQ(r.hitCount(), 3u);
    EXPECT_EQ(r.chanceCount(), 5u);
    EXPECT_DOUBLE_EQ(r.ratio(), 0.6);
    r.reset();
    EXPECT_EQ(r.ratio(), 0.0);
}

} // namespace
} // namespace mmr
