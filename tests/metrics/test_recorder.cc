/**
 * @file
 * Tests for the §5 measurement definitions: delay, jitter as the
 * difference in delays of successive flits, utilization, and the
 * warm-up gate.
 */

#include <gtest/gtest.h>

#include <vector>

#include "metrics/recorder.hh"

namespace mmr
{
namespace
{

TEST(ConnectionRecorder, DelayAndJitterDefinitions)
{
    ConnectionRecorder rec;
    rec.record(4.0, true);
    rec.record(6.0, true);  // jitter |6-4| = 2
    rec.record(3.0, true);  // jitter |3-6| = 3
    EXPECT_EQ(rec.flitCount(), 3u);
    EXPECT_EQ(rec.delay().count(), 3u);
    EXPECT_NEAR(rec.delay().mean(), 13.0 / 3.0, 1e-12);
    EXPECT_EQ(rec.jitter().count(), 2u);
    EXPECT_DOUBLE_EQ(rec.jitter().mean(), 2.5);
}

TEST(ConnectionRecorder, WarmupSeedsJitterReference)
{
    ConnectionRecorder rec;
    rec.record(10.0, false); // warm-up flit: not measured...
    rec.record(12.0, true);  // ...but its delay seeds the jitter pair
    EXPECT_EQ(rec.delay().count(), 1u);
    EXPECT_EQ(rec.jitter().count(), 1u);
    EXPECT_DOUBLE_EQ(rec.jitter().mean(), 2.0);
}

TEST(MetricsRecorder, GatesOnMeasurementStart)
{
    MetricsRecorder m;
    m.startMeasurement(100);
    EXPECT_FALSE(m.measuring(99));
    EXPECT_TRUE(m.measuring(100));
    m.recordDeparture(1, 50, 5.0);
    EXPECT_EQ(m.measuredFlits(), 0u);
    m.recordDeparture(1, 150, 7.0);
    EXPECT_EQ(m.measuredFlits(), 1u);
    EXPECT_DOUBLE_EQ(m.meanDelayCycles(), 7.0);
}

TEST(MetricsRecorder, AggregatesAcrossConnections)
{
    MetricsRecorder m;
    m.startMeasurement(0);
    m.recordDeparture(1, 1, 2.0);
    m.recordDeparture(2, 1, 6.0);
    m.recordDeparture(1, 2, 4.0); // conn 1 jitter 2
    m.recordDeparture(2, 2, 6.0); // conn 2 jitter 0
    EXPECT_DOUBLE_EQ(m.meanDelayCycles(), 4.5);
    EXPECT_DOUBLE_EQ(m.meanJitterCycles(), 1.0);
    EXPECT_EQ(m.measuredFlits(), 4u);
    EXPECT_EQ(m.connections().size(), 2u);
    ASSERT_NE(m.connection(1), nullptr);
    EXPECT_EQ(m.connection(1)->flitCount(), 2u);
    EXPECT_EQ(m.connection(99), nullptr);
}

TEST(MetricsRecorder, UtilizationFromSlots)
{
    MetricsRecorder m;
    m.startMeasurement(0);
    m.recordOutputSlot(true, 0);
    m.recordOutputSlot(false, 0);
    EXPECT_DOUBLE_EQ(m.switchUtilization(), 0.5);
    m.recordOutputSlots(3, 4, 1);
    // hits 1+3 = 4, chances 2+4 = 6.
    EXPECT_NEAR(m.switchUtilization(), 4.0 / 6.0, 1e-12);
    // Pre-measurement slots are ignored.
    MetricsRecorder gated;
    gated.startMeasurement(10);
    gated.recordOutputSlot(true, 5);
    EXPECT_DOUBLE_EQ(gated.switchUtilization(), 0.0);
}

TEST(MetricsRecorder, DelayPercentiles)
{
    MetricsRecorder m;
    m.startMeasurement(0);
    for (int i = 1; i <= 100; ++i)
        m.recordDeparture(1, 1, static_cast<double>(i));
    EXPECT_NEAR(m.delayPercentile(50), 50.0, 1.5);
    EXPECT_NEAR(m.delayPercentile(99), 99.0, 1.5);
}

TEST(MetricsRecorder, OneTableKeysEveryIdAndRecyclesReleases)
{
    MetricsRecorder m;
    m.startMeasurement(0);
    // Ids on both sides of 4096 (local harness ids, PCS labels,
    // best-effort tags), first seen in descending order.
    const std::vector<ConnId> ids = {0x4000001, 0x100002, 0x100000,
                                     5000, 4096, 4095, 17, 0};
    for (ConnId id : ids) {
        m.recordDeparture(id, 1, 2.0);
        m.recordDeparture(id, 2, 6.0); // jitter 4
    }
    const std::vector<ConnId> ascending = {
        0, 17, 4095, 4096, 5000, 0x100000, 0x100002, 0x4000001};
    EXPECT_EQ(m.connections(), ascending);
    EXPECT_EQ(m.measuredFlits(), 16u);

    m.releaseConnection(4096);
    m.releaseConnection(4095);
    m.releaseConnection(0x100000);
    m.releaseConnection(12345); // never recorded: nothing to retire
    EXPECT_EQ(m.retiredConnections(), 3u);
    EXPECT_EQ(m.connection(4096), nullptr);
    EXPECT_EQ(m.connection(4095), nullptr);
    const std::vector<ConnId> live = {0, 17, 5000, 0x100002, 0x4000001};
    EXPECT_EQ(m.connections(), live);
    EXPECT_EQ(m.measuredFlits(), 16u) << "6 retired + 10 live";

    // Recorded again, a released id starts a fresh record: its first
    // flit forms no jitter pair with the delay it had before.
    m.recordDeparture(4095, 3, 9.0);
    ASSERT_NE(m.connection(4095), nullptr);
    EXPECT_EQ(m.connection(4095)->flitCount(), 1u);
    EXPECT_EQ(m.connection(4095)->jitter().count(), 0u);
    m.recordDeparture(4095, 4, 10.0);
    EXPECT_EQ(m.connection(4095)->jitter().count(), 1u);
    EXPECT_DOUBLE_EQ(m.connection(4095)->jitter().mean(), 1.0);

    std::uint64_t live_flits = 0;
    for (ConnId id : m.connections())
        live_flits += m.connection(id)->delay().count();
    EXPECT_EQ(live_flits, 12u);
    EXPECT_EQ(m.measuredFlits(), 6u + live_flits);
    EXPECT_EQ(m.retiredConnections(), 3u);

    // Retired and live moments both reach the aggregates: eight
    // connections with one jitter pair of 4, and 4095's pair of 1.
    EXPECT_NEAR(m.meanJitterCycles(), 33.0 / 9.0, 1e-12);
    EXPECT_NEAR(m.meanDelayCycles(), 83.0 / 18.0, 1e-12);
}

} // namespace
} // namespace mmr
