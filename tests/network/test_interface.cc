/**
 * @file
 * Tests for the host network interface: stream establishment, source
 * driving, back-pressure backlog and best-effort flows.
 */

#include <gtest/gtest.h>

#include "network/interface.hh"
#include "sim/kernel.hh"
#include "temp_file.hh"

namespace mmr
{
namespace
{

class InterfaceTest : public ::testing::Test
{
  protected:
    InterfaceTest()
    {
        NetworkConfig cfg;
        cfg.router.vcsPerPort = 16;
        cfg.router.vcBufferFlits = 8;
        cfg.seed = 3;
        net = std::make_unique<Network>(Topology::mesh2d(2, 2), cfg);
        kernel.add(net.get());
    }

    std::unique_ptr<Network> net;
    Kernel kernel;
};

TEST_F(InterfaceTest, CbrStreamFlowsAutomatically)
{
    NetworkInterface ni(*net, 0, 42);
    ASSERT_TRUE(ni.openCbrStream(3, 10 * kMbps));
    EXPECT_EQ(ni.establishedStreams(), 1u);
    EXPECT_EQ(ni.refusedStreams(), 0u);

    net->endToEnd().startMeasurement(0);
    for (Cycle t = 0; t < 5000; ++t) {
        ni.tick(kernel.now());
        kernel.step();
    }
    // 10 Mb/s on a 1.24 Gb/s link: one flit every 124 cycles.
    EXPECT_NEAR(static_cast<double>(net->flitsDelivered()), 40.0, 5.0);
    EXPECT_EQ(ni.backloggedFlits(), 0u);
    EXPECT_GT(ni.injectedFlits(), 0u);
}

TEST_F(InterfaceTest, VbrStreamFlows)
{
    NetworkInterface ni(*net, 1, 43);
    VbrProfile prof;
    prof.meanRateBps = 4 * kMbps;
    // At 25 fps a frame interval is ~390k cycles — too slow for a
    // short test; a 1 kHz frame clock keeps the same machinery busy.
    prof.framesPerSecond = 1000.0;
    ASSERT_TRUE(ni.openVbrStream(2, prof, 1));
    for (Cycle t = 0; t < 60000; ++t) {
        ni.tick(kernel.now());
        kernel.step();
    }
    EXPECT_GT(net->flitsDelivered(), 0u);
}

TEST_F(InterfaceTest, TraceStreamFlows)
{
    // Write a tiny trace and replay it across the network.
    const TempFile trace("# two-frame loop\n1280\n2560\n");
    NetworkInterface ni(*net, 0, 52);
    ASSERT_TRUE(ni.openTraceStream(3, trace.path(), 2000.0, 3.0, 1));
    EXPECT_EQ(ni.establishedStreams(), 1u);
    for (Cycle t = 0; t < 40000; ++t) {
        ni.tick(kernel.now());
        kernel.step();
    }
    // Mean rate 3.84 Mb/s -> ~120 flits in 40k cycles.
    EXPECT_GT(net->flitsDelivered(), 60u);
}

TEST_F(InterfaceTest, TraceHotterThanTheLinkIsRefused)
{
    // 1.28 Mb frames at 1000 fps = 1.28 Gb/s
    const TempFile trace("1280000\n");
    NetworkInterface ni(*net, 0, 53);
    EXPECT_FALSE(ni.openTraceStream(3, trace.path(), 1000.0, 2.0, 0))
        << "declared peak (2x mean) exceeds the link rate";
    EXPECT_EQ(ni.refusedStreams(), 1u);
}

TEST_F(InterfaceTest, RefusalIsCounted)
{
    NetworkInterface ni(*net, 0, 44);
    // Demand beyond link capacity is refused by admission control.
    EXPECT_FALSE(ni.openCbrStream(3, 2.0 * kGbps));
    EXPECT_EQ(ni.refusedStreams(), 1u);
    EXPECT_EQ(ni.establishedStreams(), 0u);
}

TEST_F(InterfaceTest, BestEffortFlowsDeliver)
{
    NetworkInterface ni(*net, 0, 45);
    ni.addBestEffortFlow(3, 5 * kMbps);
    ni.addBestEffortFlow(2, 5 * kMbps);
    for (Cycle t = 0; t < 30000; ++t) {
        ni.tick(kernel.now());
        kernel.step();
    }
    EXPECT_GT(net->datagramsSent(), 100u);
    EXPECT_NEAR(static_cast<double>(net->datagramsDelivered()),
                static_cast<double>(net->datagramsSent()), 4.0)
        << "everything sent (minus in-flight tail) arrives";
}

TEST_F(InterfaceTest, BacklogPreservesOrderUnderBackpressure)
{
    NetworkInterface ni(*net, 0, 46);
    // A full-rate stream: the NI will occasionally be pushed back and
    // must queue flits, never drop or reorder them.
    ASSERT_TRUE(ni.openCbrStream(3, 1.0 * kGbps));
    net->endToEnd().startMeasurement(0);
    for (Cycle t = 0; t < 4000; ++t) {
        ni.tick(kernel.now());
        kernel.step();
    }
    const auto conns = ni.connections();
    ASSERT_EQ(conns.size(), 1u);
    const ConnectionRecorder *rec = net->endToEnd().connection(conns[0]);
    ASSERT_NE(rec, nullptr);
    EXPECT_GT(rec->flitCount(), 3000u)
        << "a reserved full-rate stream sustains ~1 flit/cycle";
}

/**
 * A host's best-effort tags form a window of kBestEffortTagsPerHost
 * below the next host's: the flow that would spill into host 2's
 * first tag (and merge both flows' delay and jitter in the recorder)
 * panics instead.
 */
TEST(NetworkInterfaceDeath, BestEffortTagWindowIsBounded)
{
    NetworkConfig cfg;
    cfg.router.vcsPerPort = 16;
    Network net(Topology::ring(3), cfg);
    NetworkInterface ni(net, 1, 7);
    for (ConnId k = 0; k < kBestEffortTagsPerHost; ++k)
        ni.addBestEffortFlow(2, 1 * kMbps);
    EXPECT_DEATH(ni.addBestEffortFlow(2, 1 * kMbps),
                 "host 1 spent its best-effort tag window");
}

} // namespace
} // namespace mmr
