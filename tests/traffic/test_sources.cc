/**
 * @file
 * Unit and property tests for the traffic models (§2): CBR, the
 * MPEG-like VBR model and the best-effort source.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "base/rng.hh"
#include "traffic/besteffort_source.hh"
#include "traffic/cbr_source.hh"
#include "traffic/vbr_source.hh"

namespace mmr
{
namespace
{

constexpr double kLink = 1.24 * kGbps;

std::uint64_t
drain(TrafficSource &src, Cycle cycles, std::vector<Cycle> *arrivals = nullptr)
{
    std::uint64_t total = 0;
    for (Cycle t = 0; t < cycles; ++t) {
        const unsigned n = src.arrivals(t);
        total += n;
        if (arrivals) {
            for (unsigned k = 0; k < n; ++k)
                arrivals->push_back(t);
        }
    }
    return total;
}

TEST(CbrSource, LongRunRateIsExact)
{
    Rng rng(1);
    CbrSource src(10 * kMbps, kLink, rng);
    const Cycle horizon = 200000;
    const auto n = drain(src, horizon);
    const double expected =
        static_cast<double>(horizon) / src.interArrival();
    EXPECT_NEAR(static_cast<double>(n), expected, 2.0);
}

TEST(CbrSource, InterArrivalIsConstant)
{
    Rng rng(2);
    CbrSource src(20 * kMbps, kLink, rng);
    std::vector<Cycle> times;
    drain(src, 100000, &times);
    ASSERT_GT(times.size(), 100u);
    // Gaps are all within 1 cycle of the nominal period (integer
    // quantization of a real-valued period).
    const double period = src.interArrival();
    for (std::size_t i = 1; i < times.size(); ++i) {
        const double gap = static_cast<double>(times[i] - times[i - 1]);
        EXPECT_NEAR(gap, period, 1.0);
    }
}

TEST(CbrSource, PhaseIsRandomized)
{
    Rng rng(3);
    CbrSource a(64 * kKbps, kLink, rng);
    CbrSource b(64 * kKbps, kLink, rng);
    std::vector<Cycle> ta, tb;
    drain(a, 100000, &ta);
    drain(b, 100000, &tb);
    ASSERT_FALSE(ta.empty());
    ASSERT_FALSE(tb.empty());
    EXPECT_NE(ta.front(), tb.front());
}

TEST(CbrSource, ClassAndRates)
{
    Rng rng(4);
    CbrSource src(5 * kMbps, kLink, rng);
    EXPECT_EQ(src.trafficClass(), TrafficClass::CBR);
    EXPECT_DOUBLE_EQ(src.meanRateBps(), 5 * kMbps);
    EXPECT_DOUBLE_EQ(src.peakRateBps(), 5 * kMbps);
}

TEST(VbrSource, LongRunMeanMatchesProfile)
{
    Rng rng(5);
    VbrProfile prof;
    prof.meanRateBps = 4 * kMbps;
    VbrSource src(prof, kLink, 128, rng);
    // ~200 frames at 25 fps on a 9.69 Mcycle/s clock.
    const auto cycles_per_sec = static_cast<Cycle>(kLink / 128);
    const Cycle horizon = 8 * cycles_per_sec;
    const auto n = drain(src, horizon);
    const double bits = static_cast<double>(n) * 128.0;
    const double seconds = static_cast<double>(horizon) / cycles_per_sec;
    EXPECT_NEAR(bits / seconds, prof.meanRateBps,
                0.15 * prof.meanRateBps);
}

TEST(VbrSource, NeverExceedsPeakRate)
{
    Rng rng(6);
    VbrProfile prof;
    prof.meanRateBps = 8 * kMbps;
    prof.peakToMean = 2.0;
    VbrSource src(prof, kLink, 128, rng);
    // Sliding-window check: flits in any window of W cycles stay
    // within peak * W (+1 boundary flit).
    const double peak_per_cycle = src.peakRateBps() / kLink;
    const Cycle window = 2000;
    std::vector<unsigned> per_cycle(400000, 0);
    for (Cycle t = 0; t < per_cycle.size(); ++t)
        per_cycle[t] = src.arrivals(t);
    std::uint64_t in_window = 0;
    for (Cycle t = 0; t < per_cycle.size(); ++t) {
        in_window += per_cycle[t];
        if (t >= window)
            in_window -= per_cycle[t - window];
        EXPECT_LE(in_window, peak_per_cycle * window + 2.0)
            << "window ending at " << t;
    }
}

TEST(VbrSource, FrameCadenceMatchesFps)
{
    Rng rng(7);
    VbrProfile prof;
    prof.framesPerSecond = 25.0;
    VbrSource src(prof, kLink, 128, rng);
    const double cycles_per_sec = kLink / 128;
    EXPECT_NEAR(src.frameIntervalCycles(), cycles_per_sec / 25.0, 1.0);
}

TEST(VbrSource, IFramesFollowTheGopScaling)
{
    // With sigma -> 0 the frame sizes become deterministic, so the
    // I/B scaling is directly observable: pattern "IB" with scales
    // 3:1 must alternate frame sizes in a 3:1 ratio.
    Rng rng(8);
    VbrProfile prof;
    prof.meanRateBps = 4 * kMbps;
    prof.sigma = 1e-9;
    prof.gopPattern = "IB";
    prof.iScale = 3.0;
    prof.bScale = 1.0;
    VbrSource src(prof, kLink, 128, rng);

    std::vector<unsigned> frame_sizes;
    unsigned last = 0;
    for (Cycle t = 0; t < 3000000 && frame_sizes.size() < 6; ++t) {
        src.arrivals(t);
        const unsigned cur = src.currentFrameFlits();
        if (cur != 0 && cur != last) {
            frame_sizes.push_back(cur);
            last = cur;
        }
    }
    ASSERT_GE(frame_sizes.size(), 4u);
    // Expected absolute sizes: mean flits/frame = 4e6/25/128 = 1250;
    // normalization (3+1)/2 = 2 gives I = 1875, B = 625.
    for (std::size_t i = 0; i + 1 < frame_sizes.size(); i += 2) {
        const double big = std::max(frame_sizes[i], frame_sizes[i + 1]);
        const double small = std::min(frame_sizes[i], frame_sizes[i + 1]);
        EXPECT_NEAR(big / small, 3.0, 0.05);
        EXPECT_NEAR(big, 1875.0, 5.0);
        EXPECT_NEAR(small, 625.0, 5.0);
    }
}

TEST(VbrSourceDeath, BadGopPatternIsFatal)
{
    Rng rng(9);
    VbrProfile prof;
    prof.gopPattern = "IXB";
    EXPECT_THROW(VbrSource(prof, kLink, 128, rng), std::runtime_error);
}

TEST(PoissonSource, MeanRateConverges)
{
    Rng rng(10);
    PoissonSource src(10 * kMbps, kLink, rng);
    const Cycle horizon = 500000;
    const auto n = drain(src, horizon);
    const double expected = horizon / interArrivalCycles(10 * kMbps, kLink);
    EXPECT_NEAR(static_cast<double>(n), expected, 0.05 * expected);
}

} // namespace
} // namespace mmr
