/**
 * @file
 * Distribution correctness of the session workload generator: the
 * empirical arrival rate and holding-time mean must match the
 * configured values, the flash-crowd ramp must have its trapezoidal
 * shape in the compiled schedule, and the rate-class mix must come
 * out in its configured proportions.  Plus the spec parsers (rates
 * with k/m/g suffixes, mix entries, flash/diurnal key=value specs).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>

#include "workload/arrival.hh"
#include "workload/generator.hh"

namespace mmr
{
namespace
{

TEST(ArrivalSchedule, EmpiricalRateMatchesBase)
{
    const double base = 0.05; // sessions per cycle
    const Cycle horizon = 200000;
    ArrivalSchedule sched(base, FlashCrowd{}, DiurnalCurve{}, horizon,
                          1234);
    std::uint64_t n = 0;
    for (Cycle t = 0; t < horizon; ++t)
        n += sched.take(t);
    const double expected = base * static_cast<double>(horizon);
    EXPECT_NEAR(static_cast<double>(n), expected, 0.10 * expected)
        << "homogeneous Poisson empirical rate off by > 10%";
    EXPECT_EQ(n, sched.drawn());
}

TEST(ArrivalSchedule, CompiledFlashCrowdShape)
{
    const double base = 0.02;
    FlashCrowd flash;
    flash.at = 10000;
    flash.rampCycles = 4000;
    flash.holdCycles = 4000;
    flash.peakFactor = 5.0;
    ArrivalSchedule sched(base, flash, DiurnalCurve{}, 40000, 7);

    // Left-edge sampling: a mark at t carries exactly lambda(t).
    EXPECT_DOUBLE_EQ(sched.rateAt(0), base);
    EXPECT_DOUBLE_EQ(sched.rateAt(9999), base);
    // Ramp midpoint (12000 is a compiled mark: 4000/16-step grid).
    EXPECT_NEAR(sched.rateAt(12000), base * 3.0, 1e-12);
    // Peak dwell.
    EXPECT_NEAR(sched.rateAt(15000), base * 5.0, 1e-12);
    // Decay midpoint and back to base.
    EXPECT_NEAR(sched.rateAt(20000), base * 3.0, base * 0.6)
        << "decay ramp not near halfway at its midpoint";
    EXPECT_DOUBLE_EQ(sched.rateAt(30000), base);

    // The ramp must rise monotonically across the compiled segments.
    double prev = 0.0;
    for (Cycle t = flash.at; t < flash.at + flash.rampCycles;
         t += 250) {
        EXPECT_GE(sched.rateAt(t), prev - 1e-12);
        prev = sched.rateAt(t);
    }

    // Empirically the peak window sees ~peakFactor x the base window.
    std::uint64_t base_n = 0;
    std::uint64_t peak_n = 0;
    ArrivalSchedule s2(base, flash, DiurnalCurve{}, 40000, 99);
    for (Cycle t = 0; t < 40000; ++t) {
        const unsigned k = s2.take(t);
        if (t < 8000)
            base_n += k;
        else if (t >= 14000 && t < 18000)
            peak_n += k;
    }
    // 8000 base cycles vs 4000 peak cycles: normalize per cycle.
    const double ratio = (static_cast<double>(peak_n) / 4000.0) /
                         (static_cast<double>(base_n) / 8000.0);
    EXPECT_GT(ratio, 3.0);
    EXPECT_LT(ratio, 7.0);
}

TEST(ArrivalSchedule, CompiledDiurnalShape)
{
    const double base = 0.04;
    DiurnalCurve d;
    d.period = 8000;
    d.amplitude = 0.5;
    ArrivalSchedule sched(base, FlashCrowd{}, d, 16000, 3);
    // Marks fall on the period/16 grid, so the sine extrema (T/4 and
    // 3T/4) are sampled exactly.
    EXPECT_DOUBLE_EQ(sched.rateAt(0), base);
    EXPECT_NEAR(sched.rateAt(2000), base * 1.5, 1e-12);
    EXPECT_NEAR(sched.rateAt(6000), base * 0.5, 1e-12);
    // Second period repeats.
    EXPECT_NEAR(sched.rateAt(10000), base * 1.5, 1e-12);
}

TEST(ArrivalSchedule, ShutOffStopsArrivals)
{
    ArrivalSchedule sched(0.5, FlashCrowd{}, DiurnalCurve{}, 1000, 11);
    std::uint64_t before = 0;
    for (Cycle t = 0; t < 100; ++t)
        before += sched.take(t);
    ASSERT_GT(before, 0u);
    sched.shutOff();
    std::uint64_t after = 0;
    for (Cycle t = 100; t < 200; ++t)
        after += sched.take(t);
    EXPECT_EQ(after, 0u);
}

TEST(ArrivalSchedule, DeterministicFromSeed)
{
    FlashCrowd flash;
    flash.at = 500;
    flash.rampCycles = 300;
    flash.peakFactor = 3.0;
    ArrivalSchedule a(0.1, flash, DiurnalCurve{}, 5000, 42);
    ArrivalSchedule b(0.1, flash, DiurnalCurve{}, 5000, 42);
    for (Cycle t = 0; t < 5000; ++t)
        ASSERT_EQ(a.take(t), b.take(t)) << "cycle " << t;
}

TEST(SessionGenerator, HoldingTimeMeanMatchesSpec)
{
    SessionWorkloadSpec spec;
    spec.holdingMeanCycles = 2000;
    SessionGenerator gen(spec, 9, 10000, 5);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(gen.draw().holdCycles);
    EXPECT_NEAR(sum / n, 2000.0, 0.05 * 2000.0)
        << "empirical holding-time mean off by > 5%";
}

TEST(SessionGenerator, MixProportionsMatchWeights)
{
    SessionWorkloadSpec spec;
    spec.mix = parseSessionMix("64k=1,1m=3,vbr:5m=1");
    SessionGenerator gen(spec, 9, 10000, 17);
    std::map<double, int> byRate;
    int vbr = 0;
    const int n = 25000;
    for (int i = 0; i < n; ++i) {
        const auto d = gen.draw();
        ++byRate[d.rateBps];
        vbr += d.vbr ? 1 : 0;
    }
    ASSERT_EQ(byRate.size(), 3u);
    const double f64k = static_cast<double>(byRate[64 * kKbps]) / n;
    const double f1m = static_cast<double>(byRate[1 * kMbps]) / n;
    const double f5m = static_cast<double>(byRate[5 * kMbps]) / n;
    EXPECT_NEAR(f64k, 0.2, 0.02);
    EXPECT_NEAR(f1m, 0.6, 0.02);
    EXPECT_NEAR(f5m, 0.2, 0.02);
    // Only the 5m class is VBR.
    EXPECT_EQ(vbr, byRate[5 * kMbps]);
}

TEST(SessionGenerator, EndpointsAreDistinctAndInRange)
{
    SessionWorkloadSpec spec;
    SessionGenerator gen(spec, 7, 1000, 23);
    for (int i = 0; i < 5000; ++i) {
        const auto d = gen.draw();
        EXPECT_LT(d.src, 7u);
        EXPECT_LT(d.dst, 7u);
        EXPECT_NE(d.src, d.dst);
    }
}

TEST(SessionGenerator, DrawsDeterministicFromSeed)
{
    SessionWorkloadSpec spec;
    SessionGenerator a(spec, 16, 1000, 77);
    SessionGenerator b(spec, 16, 1000, 77);
    for (int i = 0; i < 1000; ++i) {
        const auto da = a.draw();
        const auto db = b.draw();
        ASSERT_EQ(da.src, db.src);
        ASSERT_EQ(da.dst, db.dst);
        ASSERT_EQ(da.rateBps, db.rateBps);
        ASSERT_EQ(da.holdCycles, db.holdCycles);
    }
}

TEST(WorkloadParsers, RateSuffixes)
{
    EXPECT_DOUBLE_EQ(parseRateBps("64k"), 64 * kKbps);
    EXPECT_DOUBLE_EQ(parseRateBps("1.54m"), 1.54 * kMbps);
    EXPECT_DOUBLE_EQ(parseRateBps("2g"), 2 * kGbps);
    EXPECT_DOUBLE_EQ(parseRateBps("250000"), 250000.0);
    EXPECT_THROW(parseRateBps("64x"), std::runtime_error);
    EXPECT_THROW(parseRateBps("64k9"), std::runtime_error);
    for (const char *rate : {"nan", "nank", "inf", "-5m", "0", "k", "1e308g"})
        EXPECT_THROW(parseRateBps(rate), std::runtime_error) << rate;
}

TEST(WorkloadParsers, SessionMix)
{
    const auto mix = parseSessionMix("64k=2,vbr:5m=1.5");
    ASSERT_EQ(mix.size(), 2u);
    EXPECT_DOUBLE_EQ(mix[0].rateBps, 64 * kKbps);
    EXPECT_DOUBLE_EQ(mix[0].weight, 2.0);
    EXPECT_FALSE(mix[0].vbr);
    EXPECT_DOUBLE_EQ(mix[1].rateBps, 5 * kMbps);
    EXPECT_TRUE(mix[1].vbr);
    EXPECT_THROW(parseSessionMix(""), std::runtime_error);
    EXPECT_THROW(parseSessionMix("64k"), std::runtime_error);
    EXPECT_THROW(parseSessionMix("64k=-1"), std::runtime_error);
    EXPECT_THROW(parseSessionMix("64k=nan"), std::runtime_error);
    EXPECT_THROW(parseSessionMix("nan=1"), std::runtime_error);
    EXPECT_THROW(parseSessionMix("64k=inf"), std::runtime_error);
}

TEST(WorkloadParsers, FlashCrowdAndDiurnal)
{
    const FlashCrowd f =
        parseFlashCrowd("at=2000,ramp=1500,hold=3000,peak=4");
    EXPECT_EQ(f.at, 2000u);
    EXPECT_EQ(f.rampCycles, 1500u);
    EXPECT_EQ(f.holdCycles, 3000u);
    EXPECT_DOUBLE_EQ(f.peakFactor, 4.0);
    EXPECT_THROW(parseFlashCrowd("rampp=1"), std::runtime_error);

    const DiurnalCurve d = parseDiurnal("period=8000,amp=0.5");
    EXPECT_EQ(d.period, 8000u);
    EXPECT_DOUBLE_EQ(d.amplitude, 0.5);
    EXPECT_THROW(parseDiurnal("periodx=1"), std::runtime_error);

    // Cycle counts are whole numbers that fit a Cycle; reals are
    // finite and in range.
    for (const char *spec : {"at=-5", "at=5x", "ramp=1e30", "hold=1.5",
                             "peak=nan", "peak=-2", "at=nan"})
        EXPECT_THROW(parseFlashCrowd(spec), std::runtime_error) << spec;
    for (const char *spec : {"period=-8", "period=1e30", "amp=nan",
                             "amp=-0.5", "amp=1", "amp=2"})
        EXPECT_THROW(parseDiurnal(spec), std::runtime_error) << spec;
}

TEST(WorkloadParsers, DefaultMixIsWeightedAndCbrHeavy)
{
    const auto &mix = defaultSessionMix();
    ASSERT_GE(mix.size(), 5u);
    // Voice (lowest rate) carries the largest weight.
    EXPECT_DOUBLE_EQ(mix.front().rateBps, 64 * kKbps);
    for (const auto &e : mix)
        EXPECT_LE(e.weight, mix.front().weight);
}

} // namespace
} // namespace mmr
