/**
 * @file
 * Integration tests for the complete MMR router: connection
 * lifecycle, the flit-cycle pipeline, per-connection ordering, flow
 * control, and dynamic bandwidth management.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "router/router.hh"
#include "sim/kernel.hh"

namespace mmr
{
namespace
{

RouterConfig
smallConfig()
{
    RouterConfig cfg;
    cfg.numPorts = 4;
    cfg.vcsPerPort = 16;
    cfg.vcBufferFlits = 8;
    cfg.roundFactorK = 2;
    cfg.candidates = 4;
    cfg.seed = 3;
    return cfg;
}

struct Delivery
{
    PortId out;
    Flit flit;
    Cycle when;
};

class RouterTest : public ::testing::Test
{
  protected:
    RouterTest() : router(smallConfig(), &metrics)
    {
        router.setSink([this](PortId out, VcId, const Flit &f, Cycle t) {
            deliveries.push_back(Delivery{out, f, t});
        });
        kernel.add(&router, "dut");
    }

    void
    run(Cycle cycles)
    {
        kernel.run(cycles);
    }

    MetricsRecorder metrics;
    MmrRouter router;
    Kernel kernel;
    std::vector<Delivery> deliveries;
};

TEST_F(RouterTest, OpenCbrAllocatesResources)
{
    const ConnId id = router.openCbr(0, 2, 10 * kMbps);
    ASSERT_NE(id, kInvalidConn);
    const SegmentParams *p = router.connection(id);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->in, 0u);
    EXPECT_EQ(p->out, 2u);
    EXPECT_GT(p->allocCycles, 0u);
    EXPECT_GT(router.admission().allocatedCycles(2), 0u);
    EXPECT_EQ(router.routing().freeInputVcCount(0), 15u);
    EXPECT_EQ(router.routing().freeOutputVcCount(2), 15u);
    EXPECT_EQ(router.connectionCount(), 1u);
}

TEST_F(RouterTest, CloseReleasesEverything)
{
    const ConnId id = router.openCbr(0, 2, 10 * kMbps);
    ASSERT_TRUE(router.close(id));
    EXPECT_EQ(router.admission().allocatedCycles(2), 0u);
    EXPECT_EQ(router.routing().freeInputVcCount(0), 16u);
    EXPECT_EQ(router.routing().freeOutputVcCount(2), 16u);
    EXPECT_FALSE(router.close(id)) << "double close reports failure";
}

TEST_F(RouterTest, AdmissionRefusesOverload)
{
    // Fill output 1 to the brim with four ~full-rate connections.
    ASSERT_NE(router.openCbr(0, 1, 0.6 * kGbps), kInvalidConn);
    ASSERT_NE(router.openCbr(1, 1, 0.6 * kGbps), kInvalidConn);
    EXPECT_EQ(router.openCbr(2, 1, 0.2 * kGbps), kInvalidConn)
        << "1.24 Gb/s link cannot carry 1.4 Gb/s";
    // A different output is unaffected.
    EXPECT_NE(router.openCbr(2, 3, 0.2 * kGbps), kInvalidConn);
}

TEST_F(RouterTest, SingleFlitTraversesInOneCycle)
{
    const ConnId id = router.openCbr(0, 2, 10 * kMbps);
    Flit f;
    f.seq = 0;
    f.readyTime = 0;
    ASSERT_TRUE(router.inject(id, f));
    run(3);
    ASSERT_EQ(deliveries.size(), 1u);
    EXPECT_EQ(deliveries[0].out, 2u);
    EXPECT_EQ(deliveries[0].when, 1u)
        << "arbitration overlaps cycle 0; transmission happens in 1";
}

TEST_F(RouterTest, PerConnectionFifoOrder)
{
    const ConnId a = router.openCbr(0, 2, 300 * kMbps);
    const ConnId b = router.openCbr(1, 2, 300 * kMbps);
    std::map<ConnId, std::uint32_t> seq;
    for (std::uint32_t i = 0; i < 8; ++i) {
        const ConnId target = i % 2 ? a : b;
        Flit f;
        f.seq = seq[target]++;
        f.readyTime = 0;
        ASSERT_TRUE(router.inject(target, f));
    }
    run(40);
    std::map<ConnId, std::uint32_t> next;
    for (const Delivery &d : deliveries) {
        EXPECT_EQ(d.flit.seq, next[d.flit.conn]++)
            << "flits of one connection must not reorder";
    }
    EXPECT_EQ(deliveries.size(), 8u);
}

TEST_F(RouterTest, FlitConservation)
{
    // One flit per 5 cycles is 20% of the link: reserve 250 Mb/s so
    // the per-round quota never throttles the test stream.
    const ConnId id = router.openCbr(0, 2, 250 * kMbps);
    unsigned injected = 0;
    for (Cycle t = 0; t < 100; ++t) {
        if (t % 5 == 0) {
            Flit f;
            f.seq = injected++;
            f.readyTime = t;
            ASSERT_TRUE(router.inject(id, f));
        }
        kernel.step();
    }
    run(50); // drain
    EXPECT_EQ(deliveries.size(), injected);
    EXPECT_EQ(router.flitsInjected(), injected);
    EXPECT_EQ(router.flitsForwarded(), injected);
    EXPECT_EQ(router.forwardedByClass(TrafficClass::CBR), injected);
}

TEST_F(RouterTest, InjectionRejectedWhenVcFull)
{
    const ConnId id = router.openCbr(0, 2, 10 * kMbps);
    // Buffer depth is 8; without running the kernel nothing drains.
    for (int i = 0; i < 8; ++i) {
        Flit f;
        ASSERT_TRUE(router.inject(id, f));
    }
    Flit f;
    EXPECT_FALSE(router.inject(id, f));
    EXPECT_EQ(router.injectionRejects(), 1u);
}

TEST_F(RouterTest, TwoInputsShareOneOutputFairly)
{
    const ConnId a = router.openCbr(0, 3, 500 * kMbps);
    const ConnId b = router.openCbr(1, 3, 500 * kMbps);
    // Saturate both VCs, then let the switch arbitrate.
    for (int i = 0; i < 8; ++i) {
        Flit fa, fb;
        fa.seq = fb.seq = static_cast<std::uint32_t>(i);
        ASSERT_TRUE(router.inject(a, fa));
        ASSERT_TRUE(router.inject(b, fb));
    }
    run(80);
    EXPECT_EQ(deliveries.size(), 16u);
    // Only one flit can leave output 3 per cycle.
    std::map<Cycle, unsigned> per_cycle;
    for (const Delivery &d : deliveries)
        per_cycle[d.when]++;
    for (const auto &[t, n] : per_cycle)
        EXPECT_LE(n, 1u) << "output over-subscribed at cycle " << t;
}

TEST_F(RouterTest, RenegotiateBandwidthUpdatesAllocation)
{
    const ConnId id = router.openCbr(0, 2, 10 * kMbps);
    const unsigned before = router.admission().allocatedCycles(2);
    ASSERT_TRUE(router.renegotiateBandwidth(id, 100 * kMbps));
    EXPECT_GT(router.admission().allocatedCycles(2), before);
    const SegmentParams *p = router.connection(id);
    EXPECT_GT(p->allocCycles, 0u);
    // Infeasible renegotiation fails and leaves state intact.
    ASSERT_NE(router.openCbr(1, 2, 1.1 * kGbps), kInvalidConn);
    const unsigned mid = router.admission().allocatedCycles(2);
    EXPECT_FALSE(router.renegotiateBandwidth(id, 1.0 * kGbps));
    EXPECT_EQ(router.admission().allocatedCycles(2), mid);
}

TEST_F(RouterTest, VbrAdmissionUsesConcurrencyFactor)
{
    // concurrencyFactor = 2: peaks can oversubscribe 2x but permanent
    // bandwidth cannot.
    ASSERT_NE(router.openVbr(0, 1, 100 * kMbps, 1.2 * kGbps, 0),
              kInvalidConn);
    EXPECT_NE(router.openVbr(1, 1, 100 * kMbps, 1.2 * kGbps, 0),
              kInvalidConn)
        << "combined peak 2.4G fits 2x concurrency";
    EXPECT_EQ(router.openVbr(2, 1, 100 * kMbps, 0.2 * kGbps, 0),
              kInvalidConn)
        << "third peak exceeds round x concurrency";
}

TEST_F(RouterTest, BestEffortChannelDeliversWithoutReservation)
{
    const ConnId be = router.openBestEffort(1, 2);
    ASSERT_NE(be, kInvalidConn);
    EXPECT_EQ(router.admission().allocatedCycles(2), 0u);
    Flit f;
    ASSERT_TRUE(router.inject(be, f));
    run(5);
    ASSERT_EQ(deliveries.size(), 1u);
    EXPECT_EQ(deliveries[0].flit.klass, TrafficClass::BestEffort);
}

TEST_F(RouterTest, StreamsOutrankBestEffortUnderContention)
{
    const ConnId cbr = router.openCbr(0, 3, 600 * kMbps);
    const ConnId be = router.openBestEffort(1, 3);
    for (int i = 0; i < 6; ++i) {
        Flit fs, fb;
        fs.seq = fb.seq = static_cast<std::uint32_t>(i);
        ASSERT_TRUE(router.inject(cbr, fs));
        ASSERT_TRUE(router.inject(be, fb));
    }
    run(30);
    // The first several departures on output 3 are stream flits.
    ASSERT_GE(deliveries.size(), 12u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(deliveries[i].flit.klass, TrafficClass::CBR)
            << "guaranteed tier drains before best effort";
}

TEST_F(RouterTest, MatchingSizeAndReconfigStatsAccumulate)
{
    const ConnId id = router.openCbr(0, 2, 100 * kMbps);
    for (int i = 0; i < 4; ++i) {
        Flit f;
        ASSERT_TRUE(router.inject(id, f));
    }
    run(10);
    EXPECT_EQ(router.reconfigs().cycles(), 10u);
    EXPECT_GT(router.matchingSize().count(), 0u);
    EXPECT_GT(router.matchingSize().max(), 0.0);
}

TEST_F(RouterTest, CreditBackpressureStallsForwarding)
{
    router.credits().setInfinite(false);
    const ConnId id = router.openCbr(0, 2, 1.0 * kGbps);
    const SegmentParams *p = router.connection(id);
    for (int i = 0; i < 8; ++i) {
        Flit f;
        f.seq = static_cast<std::uint32_t>(i);
        ASSERT_TRUE(router.inject(id, f));
    }
    // Emulate a congested downstream buffer: only 2 of the 8 credits
    // remain.
    for (int i = 0; i < 6; ++i)
        router.credits().consume(p->out, p->outVc);
    run(30);
    EXPECT_EQ(deliveries.size(), 2u)
        << "forwarding must stall when credits run out";
    // Returning credits resumes transmission exactly credit-for-flit.
    for (unsigned i = 0; i < 3; ++i)
        router.credits().replenish(p->out, p->outVc);
    run(10);
    EXPECT_EQ(deliveries.size(), 5u);
}

TEST_F(RouterTest, DelayMetricsMatchDefinitions)
{
    const ConnId id = router.openCbr(0, 2, 10 * kMbps);
    metrics.startMeasurement(0);
    Flit f;
    f.readyTime = 0;
    ASSERT_TRUE(router.inject(id, f));
    run(3);
    const ConnectionRecorder *rec = metrics.connection(id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->delay().count(), 1u);
    EXPECT_DOUBLE_EQ(rec->delay().mean(), 1.0);
}

TEST_F(RouterTest, VcExhaustionFailsCleanly)
{
    // 16 VCs per port: the 17th connection on the same ports fails
    // and leaks nothing.
    std::vector<ConnId> ids;
    for (int i = 0; i < 16; ++i) {
        const ConnId id = router.openCbr(0, 1, 64 * kKbps);
        ASSERT_NE(id, kInvalidConn);
        ids.push_back(id);
    }
    EXPECT_EQ(router.openCbr(0, 1, 64 * kKbps), kInvalidConn);
    const unsigned alloc = router.admission().allocatedCycles(1);
    // 16 connections of 1 cycle each.
    EXPECT_EQ(alloc, 16u);
    for (ConnId id : ids)
        ASSERT_TRUE(router.close(id));
    EXPECT_EQ(router.admission().allocatedCycles(1), 0u);
}

} // namespace
} // namespace mmr
