/**
 * @file
 * Integration tests for the complete MMR router: connection
 * lifecycle, the flit-cycle pipeline, per-connection ordering, flow
 * control, dynamic bandwidth management, the passes of routers and
 * input ports that hold no flit, and the self-release of VCT segments.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.hh"
#include "router/router.hh"
#include "sim/invariant.hh"
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
    const ChannelRef id = router.openCbr(0, 2, 10 * kMbps);
    ASSERT_TRUE(id.valid());
    const SegmentParams p = router.segment(id);
    ASSERT_NE(p.id, kInvalidConn);
    EXPECT_EQ(p.in, 0u);
    EXPECT_EQ(p.out, 2u);
    EXPECT_GT(p.allocCycles, 0u);
    EXPECT_GT(router.admission().allocatedCycles(2), 0u);
    EXPECT_EQ(router.routing().freeInputVcCount(0), 15u);
    EXPECT_EQ(router.routing().freeOutputVcCount(2), 15u);
    EXPECT_EQ(router.connectionCount(), 1u);
}

TEST_F(RouterTest, CloseReleasesEverything)
{
    const ChannelRef id = router.openCbr(0, 2, 10 * kMbps);
    ASSERT_TRUE(router.removeSegment(id));
    EXPECT_EQ(router.admission().allocatedCycles(2), 0u);
    EXPECT_EQ(router.routing().freeInputVcCount(0), 16u);
    EXPECT_EQ(router.routing().freeOutputVcCount(2), 16u);
    EXPECT_FALSE(router.removeSegment(id)) << "double close reports failure";
}

TEST_F(RouterTest, AdmissionRefusesOverload)
{
    // Fill output 1 to the brim with four ~full-rate connections.
    ASSERT_TRUE(router.openCbr(0, 1, 0.6 * kGbps).valid());
    ASSERT_TRUE(router.openCbr(1, 1, 0.6 * kGbps).valid());
    EXPECT_FALSE(router.openCbr(2, 1, 0.2 * kGbps).valid())
        << "1.24 Gb/s link cannot carry 1.4 Gb/s";
    // A different output is unaffected.
    EXPECT_TRUE(router.openCbr(2, 3, 0.2 * kGbps).valid());
}

TEST_F(RouterTest, SingleFlitTraversesInOneCycle)
{
    const ChannelRef id = router.openCbr(0, 2, 10 * kMbps);
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
    const ChannelRef a = router.openCbr(0, 2, 300 * kMbps);
    const ChannelRef b = router.openCbr(1, 2, 300 * kMbps);
    std::map<ConnId, std::uint32_t> seq;
    for (std::uint32_t i = 0; i < 8; ++i) {
        const ChannelRef target = i % 2 ? a : b;
        Flit f;
        f.seq = seq[router.segment(target).id]++;
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
    const ChannelRef id = router.openCbr(0, 2, 250 * kMbps);
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
    const ChannelRef id = router.openCbr(0, 2, 10 * kMbps);
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
    const ChannelRef a = router.openCbr(0, 3, 500 * kMbps);
    const ChannelRef b = router.openCbr(1, 3, 500 * kMbps);
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
    const ChannelRef id = router.openCbr(0, 2, 10 * kMbps);
    const unsigned before = router.admission().allocatedCycles(2);
    ASSERT_TRUE(router.renegotiateBandwidth(id, 100 * kMbps));
    EXPECT_GT(router.admission().allocatedCycles(2), before);
    EXPECT_GT(router.segment(id).allocCycles, 0u);
    // Infeasible renegotiation fails and leaves state intact.
    ASSERT_TRUE(router.openCbr(1, 2, 1.1 * kGbps).valid());
    const unsigned mid = router.admission().allocatedCycles(2);
    EXPECT_FALSE(router.renegotiateBandwidth(id, 1.0 * kGbps));
    EXPECT_EQ(router.admission().allocatedCycles(2), mid);
}

TEST_F(RouterTest, VbrAdmissionUsesConcurrencyFactor)
{
    // concurrencyFactor = 2: peaks can oversubscribe 2x but permanent
    // bandwidth cannot.
    ASSERT_TRUE(router.openVbr(0, 1, 100 * kMbps, 1.2 * kGbps, 0).valid());
    EXPECT_TRUE(router.openVbr(1, 1, 100 * kMbps, 1.2 * kGbps, 0).valid())
        << "combined peak 2.4G fits 2x concurrency";
    EXPECT_FALSE(router.openVbr(2, 1, 100 * kMbps, 0.2 * kGbps, 0).valid())
        << "third peak exceeds round x concurrency";
}

TEST_F(RouterTest, BestEffortChannelDeliversWithoutReservation)
{
    const ChannelRef be = router.openBestEffort(1, 2);
    ASSERT_TRUE(be.valid());
    EXPECT_EQ(router.admission().allocatedCycles(2), 0u);
    Flit f;
    ASSERT_TRUE(router.inject(be, f));
    run(5);
    ASSERT_EQ(deliveries.size(), 1u);
    EXPECT_EQ(deliveries[0].flit.klass, TrafficClass::BestEffort);
}

TEST_F(RouterTest, StreamsOutrankBestEffortUnderContention)
{
    const ChannelRef cbr = router.openCbr(0, 3, 600 * kMbps);
    const ChannelRef be = router.openBestEffort(1, 3);
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
    const ChannelRef id = router.openCbr(0, 2, 100 * kMbps);
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
    const ChannelRef id = router.openCbr(0, 2, 1.0 * kGbps);
    const SegmentParams p = router.segment(id);
    for (int i = 0; i < 8; ++i) {
        Flit f;
        f.seq = static_cast<std::uint32_t>(i);
        ASSERT_TRUE(router.inject(id, f));
    }
    // Emulate a congested downstream buffer: only 2 of the 8 credits
    // remain.
    for (int i = 0; i < 6; ++i)
        router.credits().consume(p.out, p.outVc);
    run(30);
    EXPECT_EQ(deliveries.size(), 2u)
        << "forwarding must stall when credits run out";
    // Returning credits resumes transmission exactly credit-for-flit.
    for (unsigned i = 0; i < 3; ++i)
        router.credits().replenish(p.out, p.outVc);
    run(10);
    EXPECT_EQ(deliveries.size(), 5u);
}

TEST_F(RouterTest, DelayMetricsMatchDefinitions)
{
    const ChannelRef id = router.openCbr(0, 2, 10 * kMbps);
    metrics.startMeasurement(0);
    Flit f;
    f.readyTime = 0;
    ASSERT_TRUE(router.inject(id, f));
    run(3);
    const ConnectionRecorder *rec =
        metrics.connection(router.segment(id).id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->delay().count(), 1u);
    EXPECT_DOUBLE_EQ(rec->delay().mean(), 1.0);
}

TEST_F(RouterTest, VcExhaustionFailsCleanly)
{
    // 16 VCs per port: the 17th connection on the same ports fails
    // and leaks nothing.
    std::vector<ChannelRef> ids;
    for (int i = 0; i < 16; ++i) {
        const ChannelRef id = router.openCbr(0, 1, 64 * kKbps);
        ASSERT_TRUE(id.valid());
        ids.push_back(id);
    }
    EXPECT_FALSE(router.openCbr(0, 1, 64 * kKbps).valid());
    const unsigned alloc = router.admission().allocatedCycles(1);
    // 16 connections of 1 cycle each.
    EXPECT_EQ(alloc, 16u);
    for (const ChannelRef id : ids)
        ASSERT_TRUE(router.removeSegment(id));
    EXPECT_EQ(router.admission().allocatedCycles(1), 0u);
}

/** Occurrences of @p needle in @p hay. */
std::size_t
countOf(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

/**
 * A skipped input port's link scheduler catches up on its next pass.
 * A CBR VC spends its whole round quota, its port drains, and three
 * round boundaries pass while the port holds nothing: once with the
 * whole router quiet, once with port 1 kept busy so that only port 0
 * is skipped.  The flit that then arrives is granted in the cycle it
 * arrives, and the catch-up lands in the current round: the wake
 * round grants exactly the quota and the rest waits for the next
 * boundary.
 */
TEST(RouterActivity, QuietPortRollsItsRoundOnWake)
{
    for (const bool neighbour_busy : {false, true}) {
        SCOPED_TRACE(neighbour_busy ? "port 1 busy" : "router quiet");
        const RouterConfig cfg = smallConfig();
        const Cycle round = cfg.cyclesPerRound();
        MmrRouter router(cfg);
        std::vector<Cycle> sent; // departures of the CBR VC
        router.setSink([&](PortId out, VcId, const Flit &, Cycle t) {
            if (out == 2)
                sent.push_back(t);
        });
        Kernel kernel;
        kernel.add(&router);

        const ChannelRef cbr =
            router.openCbr(0, 2, 2.0 / round * cfg.linkRateBps);
        ASSERT_TRUE(cbr.valid());
        const unsigned quota = router.segment(cbr).allocCycles;
        ASSERT_EQ(quota, 2u);
        const ChannelRef be = router.openBestEffort(1, 3);
        ASSERT_TRUE(be.valid());

        // Inject @p n CBR flits (plus one on port 1 when it is kept
        // busy) ready at the current cycle, then run that cycle.
        const auto step = [&](unsigned n) {
            Flit f;
            f.readyTime = kernel.now();
            for (unsigned i = 0; i < n; ++i) {
                ASSERT_TRUE(router.inject(cbr, f));
            }
            if (neighbour_busy) {
                ASSERT_TRUE(router.inject(be, f));
            }
            kernel.step();
        };

        step(quota); // granted at cycles 0 and 1: the round's quota
        const Cycle wake = 3 * round + 5;
        while (kernel.now() < wake)
            step(0);
        ASSERT_EQ(sent, (std::vector<Cycle>{1, 2}));
        EXPECT_EQ(router.linkScheduler(0).roundCount(), 0u)
            << "port 0 was skipped from cycle 3 on";

        step(quota + 1);
        EXPECT_EQ(router.linkScheduler(0).roundCount(), 3u)
            << "the wake pass rolls every boundary it missed";
        while (kernel.now() < 4 * round + 3)
            step(0);
        EXPECT_EQ(sent, (std::vector<Cycle>{1, 2, wake + 1, wake + 2,
                                            4 * round + 1}));
    }
}

/**
 * A router whose VCs are bound but hold no flit skips scheduling, yet
 * each of its cycles still counts as a pass: one matching-size sample,
 * one crossbar cycle and one sched.matching_size trace sample, all of
 * size 0.  The window opens one cycle after a flit crossed, so its
 * first cycle is the one reconfiguration (to the empty crossbar).
 */
TEST(RouterActivity, QuietCyclesStillCountAsPasses)
{
    MmrRouter router(smallConfig());
    Kernel kernel;
    kernel.add(&router);
    const ChannelRef cbr = router.openCbr(0, 2, 10 * kMbps);
    ASSERT_TRUE(cbr.valid());
    ASSERT_TRUE(router.openVbr(1, 3, 10 * kMbps, 20 * kMbps, 1).valid());
    ASSERT_TRUE(router.openBestEffort(2, 0).valid());
    ASSERT_TRUE(router.inject(cbr, Flit{}));
    kernel.run(2); // granted in cycle 0, crosses in cycle 1
    ASSERT_EQ(router.flitsForwarded(), 1u);

    const std::uint64_t passes = router.matchingSize().count();
    const std::uint64_t cycles = router.reconfigs().cycles();
    const std::uint64_t changes = router.reconfigs().reconfigurations();
    FlightRecorder fr;
    fr.setCategoryMask(0);
    fr.startTrace(catBit(TraceCat::Sched));
    fr.activate();
    constexpr Cycle kQuiet = 40;
    kernel.run(kQuiet);
    fr.deactivate();

    EXPECT_EQ(router.matchingSize().count() - passes, kQuiet);
    EXPECT_EQ(router.reconfigs().cycles() - cycles, kQuiet);
    EXPECT_EQ(router.reconfigs().reconfigurations() - changes, 1u);
    std::ostringstream os;
    fr.writeTraceJson(os);
    const std::string trace = os.str();
    EXPECT_EQ(fr.traceSize(), kQuiet);
    EXPECT_EQ(countOf(trace, "{\"name\":\"sched.matching_size\","
                             "\"cat\":\"sched\",\"ph\":\"C\""),
              kQuiet);
    EXPECT_EQ(countOf(trace, "\"args\":{\"value\":0}"), kQuiet);
}

/**
 * A VCT segment (releaseWhenEmpty, as the network installs for a
 * datagram hop) removes itself when the flit that drains its input VC
 * crosses the switch: its connection is gone, its input and output
 * VCs are free and segmentRemoved fires once.  A VCT segment that
 * still buffers a flit survives a departure, and a plain segment —
 * here on the very VC a VCT segment just freed — never goes by itself.
 */
TEST(RouterVctRelease, SegmentGoesWhenItsLastFlitLeaves)
{
    const RouterConfig cfg = smallConfig();
    MmrRouter router(cfg);
    Kernel kernel;
    kernel.add(&router);
    std::vector<ConnId> removed;
    router.setSegmentRemoved(
        [&](const SegmentParams &p) { removed.push_back(p.id); });

    const auto install = [&](ConnId id, PortId in, PortId out,
                             bool vct) {
        SegmentParams p;
        p.id = id;
        p.klass = TrafficClass::BestEffort;
        p.in = in;
        p.out = out;
        p.inVc = router.routing().allocInputVc(in);
        p.outVc = router.routing().allocOutputVc(out);
        p.releaseWhenEmpty = vct;
        EXPECT_TRUE(router.installSegment(p));
        return p;
    };
    const SegmentParams one = install(100, 0, 2, true);
    const SegmentParams two = install(101, 1, 3, true);
    const ChannelRef one_in{one.in, one.inVc};
    const ChannelRef two_in{two.in, two.inVc};
    ASSERT_TRUE(router.inject(one_in, Flit{}));
    ASSERT_TRUE(router.inject(two_in, Flit{}));
    ASSERT_TRUE(router.inject(two_in, Flit{}));

    kernel.run(2); // the first flits are granted in cycle 0, cross in 1
    ASSERT_EQ(router.flitsForwarded(), 2u);
    EXPECT_EQ(router.segment(one_in).id, kInvalidConn);
    EXPECT_FALSE(router.inputMemory(one.in).vc(one.inVc).bound());
    EXPECT_EQ(router.routing().freeInputVcCount(one.in), cfg.vcsPerPort);
    EXPECT_EQ(router.routing().freeOutputVcCount(one.out),
              cfg.vcsPerPort);
    EXPECT_EQ(removed, std::vector<ConnId>{one.id});
    EXPECT_EQ(router.segment(two_in).id, two.id)
        << "a VCT segment still buffering a flit stays";

    const SegmentParams plain = install(102, one.in, one.out, false);
    ASSERT_EQ(plain.inVc, one.inVc);
    ASSERT_TRUE(router.inject(one_in, Flit{}));
    kernel.run(2); // two's second flit crosses in 2, plain's in 3
    ASSERT_EQ(router.flitsForwarded(), 4u);
    EXPECT_EQ(router.segment(two_in).id, kInvalidConn);
    EXPECT_EQ(removed, (std::vector<ConnId>{one.id, two.id}));
    ASSERT_EQ(router.segment(one_in).id, plain.id)
        << "a plain segment outlives its drained VC";
    EXPECT_TRUE(router.inputMemory(plain.in).vc(plain.inVc).bound());
    EXPECT_EQ(router.connectionCount(), 1u);
}

/**
 * A segment is its input channel, not its id: two datagrams of one
 * flow carry the flow's id on two input VCs at once, and removing one
 * by channel leaves the other.  An install on a VC that is already
 * bound is refused and changes nothing.
 */
TEST(RouterSegments, OneIdBindsOnTwoChannels)
{
    MmrRouter router(smallConfig());
    InvariantChecker chk;
    router.registerInvariants(chk);
    const auto datagram = [&](PortId in, PortId out) {
        SegmentParams p;
        p.id = 0x4000000; // one best-effort flow tag
        p.klass = TrafficClass::BestEffort;
        p.in = in;
        p.inVc = router.routing().allocInputVc(in);
        p.out = out;
        p.outVc = router.routing().allocOutputVc(out);
        p.releaseWhenEmpty = true;
        return p;
    };
    const SegmentParams a = datagram(0, 2);
    const SegmentParams b = datagram(1, 2);
    const ChannelRef a_in{a.in, a.inVc};
    const ChannelRef b_in{b.in, b.inVc};
    ASSERT_TRUE(router.installSegment(a));
    ASSERT_TRUE(router.installSegment(b)) << "one flow, two channels";
    EXPECT_EQ(router.connectionCount(), 2u);
    EXPECT_EQ(router.segment(a_in).outVc, a.outVc);
    EXPECT_EQ(router.segment(b_in).outVc, b.outVc);

    SegmentParams clash = datagram(3, 0);
    clash.id = 7;
    clash.in = b.in;
    clash.inVc = b.inVc;
    EXPECT_FALSE(router.installSegment(clash)) << "the VC is bound";
    EXPECT_EQ(router.segment(b_in).id, b.id);
    EXPECT_EQ(router.segment(b_in).out, b.out);
    EXPECT_EQ(router.connectionCount(), 2u);
    chk.checkAll(0);

    ASSERT_TRUE(router.removeSegment(a_in));
    EXPECT_EQ(router.segment(a_in).id, kInvalidConn);
    EXPECT_EQ(router.segment(b_in).id, b.id);
    EXPECT_EQ(router.connectionCount(), 1u);
    EXPECT_FALSE(router.removeSegment(a_in));
    ASSERT_TRUE(router.inject(b_in, Flit{}));
    chk.checkAll(0);
}

} // namespace
} // namespace mmr
