/**
 * @file
 * Tests for the trace-driven VBR source: parsing, replay fidelity,
 * looping, rate computation, and cross-validation against the
 * synthetic GOP model it can be generated from.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "temp_file.hh"
#include "traffic/trace_source.hh"

namespace mmr
{
namespace
{

constexpr double kLink = 1.24 * kGbps;

TEST(FrameTrace, ParsesSizesAndComments)
{
    TempFile f("# header comment\n"
               "1000\n"
               "2000  # trailing comment\n"
               "\n"
               "3000\n");
    const auto trace = loadFrameTrace(f.path());
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0], 1000u);
    EXPECT_EQ(trace[1], 2000u);
    EXPECT_EQ(trace[2], 3000u);
}

TEST(FrameTrace, RejectsGarbage)
{
    TempFile junk("1000 extra\n");
    EXPECT_THROW(loadFrameTrace(junk.path()), std::runtime_error);
    TempFile zero("0\n");
    EXPECT_THROW(loadFrameTrace(zero.path()), std::runtime_error);
    TempFile empty("# nothing\n");
    EXPECT_THROW(loadFrameTrace(empty.path()), std::runtime_error);
    EXPECT_THROW(loadFrameTrace("/nonexistent/trace.txt"),
                 std::runtime_error);
}

TEST(TraceVbrSource, MeanRateFromTrace)
{
    // 3 frames of 12800 bits at 1000 fps -> 12.8 Mb/s.
    Rng rng(1);
    TraceVbrSource src(std::vector<std::uint64_t>{12800, 12800, 12800}, 1000.0, 100 * kMbps,
                       kLink, 128, rng);
    EXPECT_NEAR(src.meanRateBps(), 12.8 * kMbps, 1.0);
    EXPECT_DOUBLE_EQ(src.peakRateBps(), 100 * kMbps);
    EXPECT_EQ(src.traceLength(), 3u);
}

TEST(TraceVbrSource, ReplaysAndLoops)
{
    // Distinct frame sizes replay in order and wrap around.
    Rng rng(2);
    TraceVbrSource src(std::vector<std::uint64_t>{1280, 2560, 640}, 2000.0, 200 * kMbps, kLink,
                       128, rng);
    // Frame interval at 2000 fps: ~4844 cycles.  Count flits per
    // frame window: 10, 20, 5, then 10 again.
    std::vector<unsigned> per_window;
    unsigned current = 0;
    double boundary = -1.0;
    for (Cycle t = 0; t < 40000; ++t) {
        const unsigned n = src.arrivals(t);
        if (n > 0 && boundary < 0.0)
            boundary = src.currentFrameDeadline();
        if (boundary > 0.0 && static_cast<double>(t) > boundary) {
            per_window.push_back(current);
            current = 0;
            boundary = src.currentFrameDeadline();
        }
        current += n;
    }
    ASSERT_GE(per_window.size(), 4u);
    EXPECT_EQ(per_window[0], 10u);
    EXPECT_EQ(per_window[1], 20u);
    EXPECT_EQ(per_window[2], 5u);
    EXPECT_EQ(per_window[3], 10u) << "trace loops back to the start";
}

TEST(TraceVbrSource, LongRunRateConverges)
{
    Rng rng(3);
    VbrProfile prof;
    prof.meanRateBps = 6 * kMbps;
    prof.framesPerSecond = 500.0;
    TempFile dummy("");
    writeSyntheticTrace(dummy.path(), prof, 400, rng);

    TraceVbrSource src(loadFrameTrace(dummy.path()), prof.framesPerSecond,
                       prof.meanRateBps * 3.0, kLink, 128, rng);
    // The lognormal sampling keeps the empirical mean near the
    // profile's.
    EXPECT_NEAR(src.meanRateBps(), prof.meanRateBps,
                0.15 * prof.meanRateBps);

    std::uint64_t flits = 0;
    const Cycle horizon = 2000000;
    for (Cycle t = 0; t < horizon; ++t)
        flits += src.arrivals(t);
    const double cycles_per_second = kLink / 128;
    const double bps = static_cast<double>(flits) * 128.0 /
                       (horizon / cycles_per_second);
    EXPECT_NEAR(bps, src.meanRateBps(), 0.15 * src.meanRateBps());
}

TEST(TraceVbrSource, RespectsPeakCap)
{
    // One huge frame with a tight peak: emission is spaced at the
    // peak period, never faster.
    Rng rng(4);
    TraceVbrSource src(std::vector<std::uint64_t>{128 * 1000}, 100.0, 12.4 * kMbps, kLink, 128,
                       rng);
    const double min_gap = interArrivalCycles(12.4 * kMbps, kLink);
    Cycle last = 0;
    bool first = true;
    for (Cycle t = 0; t < 400000; ++t) {
        const unsigned n = src.arrivals(t);
        ASSERT_LE(n, 1u) << "peak cap forbids bursts within a cycle";
        if (n == 1) {
            if (!first) {
                EXPECT_GE(static_cast<double>(t - last), min_gap - 1.0);
            }
            last = t;
            first = false;
        }
    }
}

TEST(TraceVbrSource, GeneratedTraceMatchesGopStatistics)
{
    // Cross-validation: a trace generated from the GOP model, played
    // back, carries the same long-run rate as the live VbrSource.
    Rng rng(5);
    VbrProfile prof;
    prof.meanRateBps = 4 * kMbps;
    prof.framesPerSecond = 1000.0;
    TempFile f("");
    writeSyntheticTrace(f.path(), prof, 600, rng);
    TraceVbrSource replay(loadFrameTrace(f.path()), prof.framesPerSecond,
                          prof.meanRateBps * prof.peakToMean, kLink,
                          128, rng);
    VbrSource live(prof, kLink, 128, rng);

    std::uint64_t flits_replay = 0, flits_live = 0;
    const Cycle horizon = 3000000;
    for (Cycle t = 0; t < horizon; ++t) {
        flits_replay += replay.arrivals(t);
        flits_live += live.arrivals(t);
    }
    EXPECT_NEAR(static_cast<double>(flits_replay),
                static_cast<double>(flits_live),
                0.2 * static_cast<double>(flits_live));
}

} // namespace
} // namespace mmr
