/**
 * @file
 * Integration tests for the multi-router network: end-to-end PCS
 * streams, credit back-pressure across links, teardown, dynamic
 * bandwidth management along a path, and VCT datagram delivery.
 */

#include <gtest/gtest.h>

#include <map>

#include "network/network.hh"
#include "sim/kernel.hh"

namespace mmr
{
namespace
{

NetworkConfig
smallNetConfig()
{
    NetworkConfig cfg;
    cfg.router.vcsPerPort = 16;
    cfg.router.vcBufferFlits = 8;
    cfg.router.candidates = 4;
    cfg.router.roundFactorK = 2;
    cfg.linkLatency = 1;
    cfg.seed = 13;
    return cfg;
}

class NetworkTest : public ::testing::Test
{
  protected:
    void
    build(const Topology &t)
    {
        net = std::make_unique<Network>(t, smallNetConfig());
        kernel.add(net.get(), "net");
    }

    void
    run(Cycle cycles)
    {
        kernel.run(cycles);
    }

    std::unique_ptr<Network> net;
    Kernel kernel;
};

TEST_F(NetworkTest, CbrStreamDeliversEndToEndInOrder)
{
    build(Topology::mesh2d(3, 3));
    const auto outcome = net->openCbr(0, 8, 100 * kMbps);
    ASSERT_TRUE(outcome.accepted);
    EXPECT_EQ(outcome.pathLength, 5u); // 4 links + destination NI
    EXPECT_GT(outcome.setupCycles, 0u);

    net->endToEnd().startMeasurement(0);
    for (std::uint32_t i = 0; i < 10; ++i) {
        Flit f;
        f.seq = i;
        f.createTime = kernel.now();
        ASSERT_TRUE(net->inject(outcome.handle, f, kernel.now()));
        run(13); // stay within the allocated rate
    }
    run(100);
    EXPECT_EQ(net->flitsDelivered(), 10u);
    const ConnectionRecorder *rec =
        net->endToEnd().connection(outcome.id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->delay().count(), 10u);
    // Each of the 4 router hops needs >= 1 cycle of switching plus 1
    // cycle of link latency; the NI hop adds one more switch pass.
    EXPECT_GE(rec->delay().min(), 4.0 * 2.0 + 1.0);
}

TEST_F(NetworkTest, SetupRefusedWhenSaturated)
{
    build(Topology::ring(4));
    // EPB performs "an exhaustive search of the minimal paths": for
    // adjacent ring nodes the only minimal path is the direct link,
    // so acceptance stops when its 16 VCs are gone (the longer way
    // around is non-minimal and never probed).
    unsigned accepted = 0;
    for (int i = 0; i < 64; ++i) {
        const auto o = net->openCbr(0, 1, 64 * kKbps);
        if (o.accepted)
            ++accepted;
        else
            break;
    }
    EXPECT_EQ(accepted, 16u);
    EXPECT_EQ(net->openConnectionCount(), 16u);
}

TEST_F(NetworkTest, TeardownDrainsAndReleases)
{
    build(Topology::mesh2d(2, 2));
    const auto o = net->openCbr(0, 3, 200 * kMbps);
    ASSERT_TRUE(o.accepted);
    const auto path = net->connectionPath(o.handle);
    ASSERT_GE(path.size(), 3u);

    for (std::uint32_t i = 0; i < 5; ++i) {
        Flit f;
        f.seq = i;
        ASSERT_TRUE(net->inject(o.handle, f, kernel.now()));
        run(7);
    }
    ASSERT_TRUE(net->closeConnection(o.handle));
    run(200);
    EXPECT_EQ(net->openConnectionCount(), 0u);
    EXPECT_EQ(net->flitsDelivered(), 5u) << "teardown waits for drain";
    // All admission registers across the network are back to zero.
    for (NodeId n = 0; n < 4; ++n) {
        MmrRouter &r = net->routerAt(n);
        for (PortId p = 0; p < r.config().numPorts; ++p)
            EXPECT_EQ(r.admission().allocatedCycles(p), 0u);
    }
}

TEST_F(NetworkTest, HandleLifecycle)
{
    build(Topology::mesh2d(2, 2));
    EXPECT_FALSE(net->live(Network::Handle{}));
    EXPECT_EQ(net->connectionState(Network::Handle{}),
              Network::ConnState::Gone);

    // Closing: not live from the moment the close is asked for, while
    // the flit still drains; the handle still names the connection.
    const auto a = net->openCbr(0, 3, 200 * kMbps);
    ASSERT_TRUE(a.accepted);
    EXPECT_TRUE(net->live(a.handle));
    ASSERT_TRUE(net->inject(a.handle, Flit{}, kernel.now()));
    ASSERT_TRUE(net->closeConnection(a.handle));
    EXPECT_FALSE(net->live(a.handle));
    EXPECT_FALSE(net->inject(a.handle, Flit{}, kernel.now()));
    EXPECT_EQ(net->connectionState(a.handle), Network::ConnState::Open);
    EXPECT_TRUE(net->closeConnection(a.handle)) << "closing twice is a no-op";
    EXPECT_EQ(net->connectionPath(a.handle).size(), 3u);
    EXPECT_EQ(net->openConnectionCount(), 1u);

    // Drained: the slot is freed and the handle is stale.
    run(200);
    ASSERT_EQ(net->openConnectionCount(), 0u);
    EXPECT_EQ(net->connectionState(a.handle), Network::ConnState::Gone);

    // The next connection reuses the slot; the stale handle reaches
    // nothing of it.
    const auto b = net->openCbr(0, 3, 100 * kMbps);
    ASSERT_TRUE(b.accepted);
    ASSERT_EQ(b.handle.slot, a.handle.slot);
    EXPECT_TRUE(net->live(b.handle));
    EXPECT_FALSE(net->live(a.handle));
    const ChannelRef src = net->connectionPath(b.handle).front().in;
    const VcState &vc = net->routerAt(0).inputMemory(src.port).vc(src.vc);
    ASSERT_EQ(vc.conn(), b.id);
    const unsigned b_alloc = vc.allocCycles();
    const std::uint64_t rejects = net->injectRejects();
    EXPECT_FALSE(net->inject(a.handle, Flit{}, kernel.now()));
    EXPECT_FALSE(net->inject(Network::Handle{}, Flit{}, kernel.now()));
    EXPECT_TRUE(vc.empty());
    EXPECT_EQ(net->injectRejects(), rejects);
    EXPECT_FALSE(net->closeConnection(a.handle));
    EXPECT_FALSE(net->renegotiateBandwidth(a.handle, 400 * kMbps));
    EXPECT_TRUE(net->connectionPath(a.handle).empty());
    EXPECT_EQ(net->connectionState(a.handle), Network::ConnState::Gone);
    EXPECT_TRUE(net->live(b.handle));
    EXPECT_EQ(vc.allocCycles(), b_alloc);

    // The new handle works.
    ASSERT_TRUE(net->inject(b.handle, Flit{}, kernel.now()));
    EXPECT_EQ(vc.depth(), 1u);
    ASSERT_TRUE(net->renegotiateBandwidth(b.handle, 400 * kMbps));
    EXPECT_GT(vc.allocCycles(), b_alloc);

    // Failed: not live, reads Failed and can still be closed; once
    // drained it reads Gone.
    const auto path = net->connectionPath(b.handle);
    ASSERT_GE(path.size(), 2u);
    ASSERT_TRUE(net->failLink(path[0].node, path[1].node));
    EXPECT_FALSE(net->live(b.handle));
    EXPECT_EQ(net->connectionState(b.handle), Network::ConnState::Failed);
    EXPECT_TRUE(net->closeConnection(b.handle));
    run(200);
    EXPECT_EQ(net->connectionState(b.handle), Network::ConnState::Gone);
    ASSERT_TRUE(net->repairLink(path[0].node, path[1].node));

    // A VBR connection on the same slot: the stale priority change
    // reaches nothing, the new handle's does.
    const auto c = net->openVbr(0, 3, 4 * kMbps, 12 * kMbps, 1);
    ASSERT_TRUE(c.accepted);
    ASSERT_EQ(c.handle.slot, b.handle.slot);
    EXPECT_FALSE(net->setConnectionPriority(b.handle, 5));
    for (const Network::PathHop &hop : net->connectionPath(c.handle))
        EXPECT_EQ(net->routerAt(hop.node).segment(hop.in).priority, 1);
    ASSERT_TRUE(net->setConnectionPriority(c.handle, 5));
    for (const Network::PathHop &hop : net->connectionPath(c.handle))
        EXPECT_EQ(net->routerAt(hop.node).segment(hop.in).priority, 5);
}

/**
 * A timed setup records its handle when the path is installed.  If
 * the connection fails, drains and loses its slot to another one
 * before the outcome is taken, the handle taken is stale: it must not
 * reach the slot's new connection.
 */
TEST_F(NetworkTest, TimedSetupOnAReusedSlotHandsBackADeadHandle)
{
    build(Topology::mesh2d(2, 2));
    const std::uint64_t token =
        net->openCbrTimed(0, 1, 200 * kMbps, kernel.now());
    for (int i = 0; i < 200 && net->pendingSetups() != 0; ++i)
        run(1);
    ASSERT_EQ(net->pendingSetups(), 0u);
    ASSERT_EQ(net->openConnectionCount(), 1u) << "installed at the ack";

    // The only minimal path is the direct link: cut it and let the
    // connection drain, then give its slot to a zero-time setup.
    ASSERT_TRUE(net->failLink(0, 1));
    run(50);
    ASSERT_EQ(net->openConnectionCount(), 0u);
    const auto z = net->openCbr(0, 3, 200 * kMbps);
    ASSERT_TRUE(z.accepted);

    Network::SetupOutcome out;
    ASSERT_TRUE(net->takeTimedResult(token, out));
    EXPECT_TRUE(out.accepted);
    EXPECT_NE(out.id, z.id);
    EXPECT_EQ(out.handle.slot, z.handle.slot) << "the slot was reused";
    EXPECT_FALSE(net->live(out.handle));
    EXPECT_EQ(net->connectionState(out.handle), Network::ConnState::Gone);
    EXPECT_TRUE(net->connectionPath(out.handle).empty());
    EXPECT_FALSE(net->closeConnection(out.handle));
    EXPECT_TRUE(net->live(z.handle));
}

TEST_F(NetworkTest, SetupTokenLifecycle)
{
    build(Topology::mesh2d(2, 2));
    auto settle = [this] {
        for (int i = 0; i < 200 && net->pendingSetups() != 0; ++i)
            run(1);
        ASSERT_EQ(net->pendingSetups(), 0u);
    };
    Network::SetupOutcome out;

    // In flight: there is nothing to take yet.
    const std::uint64_t ta =
        net->openCbrTimed(0, 3, 200 * kMbps, kernel.now());
    EXPECT_FALSE(net->takeTimedResult(ta, out));
    settle();
    EXPECT_EQ(net->probes().untakenOutcomes(), 1u);

    // The first take succeeds, and only once.
    ASSERT_TRUE(net->takeTimedResult(ta, out));
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(out.pathLength, 3u);
    const ConnId a = out.id;
    EXPECT_EQ(net->probes().untakenOutcomes(), 0u);
    EXPECT_FALSE(net->takeTimedResult(ta, out));
    EXPECT_FALSE(net->takeTimedResult(ta + 1, out))
        << "the free slot's next token must not take it";

    // The next setup reuses the freed slot (the pool holds one); the
    // taken token stays dead while it runs and after it lands, and
    // the new token reads its own outcome.
    const std::uint64_t tb =
        net->openCbrTimed(0, 1, 200 * kMbps, kernel.now());
    EXPECT_EQ(tb >> 32, ta >> 32) << "same probe slot";
    EXPECT_NE(tb, ta);
    EXPECT_FALSE(net->takeTimedResult(ta, out));
    settle();
    EXPECT_FALSE(net->takeTimedResult(ta, out));
    ASSERT_TRUE(net->takeTimedResult(tb, out));
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(out.pathLength, 2u);
    EXPECT_NE(out.id, a);
    EXPECT_FALSE(net->takeTimedResult(tb, out));
    EXPECT_EQ(net->probes().untakenOutcomes(), 0u);
}

TEST_F(NetworkTest, RenegotiateAlongWholePath)
{
    build(Topology::mesh2d(2, 2));
    const auto o = net->openCbr(0, 3, 100 * kMbps);
    ASSERT_TRUE(o.accepted);
    ASSERT_TRUE(net->renegotiateBandwidth(o.handle, 400 * kMbps));
    // Every router on the path now carries the bigger reservation.
    for (const Network::PathHop &hop : net->connectionPath(o.handle)) {
        const SegmentParams seg = net->routerAt(hop.node).segment(hop.in);
        ASSERT_EQ(seg.id, o.id);
        EXPECT_GT(seg.allocCycles, 3u);
    }
    // An impossible renegotiation fails atomically.
    EXPECT_FALSE(net->renegotiateBandwidth(o.handle, 2.0 * kGbps));
    for (const Network::PathHop &hop : net->connectionPath(o.handle)) {
        const SegmentParams seg = net->routerAt(hop.node).segment(hop.in);
        const double granted =
            net->routerAt(hop.node).config().linkRateBps / seg.interArrival;
        EXPECT_NEAR(granted, 400 * kMbps, 1.0)
            << "rollback must restore the previous rate";
    }
}

/**
 * A renegotiation refused past the first hop rolls every hop that
 * accepted it back to the reservation it held, to the cycle.  On a
 * 64-cycle round, 49/64 of the link re-derived from the inter-arrival
 * time would round up to 50 cycles.
 */
TEST_F(NetworkTest, RefusedRenegotiationRestoresEveryHop)
{
    NetworkConfig ncfg = smallNetConfig();
    ncfg.router.vcsPerPort = 32; // round = 64 cycles
    net = std::make_unique<Network>(Topology::mesh2d(3, 1), ncfg);
    kernel.add(net.get(), "net");
    const double link = ncfg.router.linkRateBps;
    const unsigned round = ncfg.router.cyclesPerRound();
    ASSERT_EQ(round, 64u);

    const auto stream = net->openCbr(0, 2, 49.0 / round * link);
    ASSERT_TRUE(stream.accepted);
    const auto rival = net->openCbr(1, 2, 10.0 / round * link);
    ASSERT_TRUE(rival.accepted);
    const auto path = net->connectionPath(stream.handle);
    ASSERT_EQ(path.size(), 3u);
    std::vector<SegmentParams> before;
    std::vector<unsigned> registers;
    for (const Network::PathHop &hop : path) {
        before.push_back(net->routerAt(hop.node).segment(hop.in));
        ASSERT_EQ(before.back().allocCycles, 49u);
        registers.push_back(net->routerAt(hop.node).admission()
                                .allocatedCycles(before.back().out));
    }

    // Hop 0 accepts 60 cycles; hop 1 carries the rival's 10 as well.
    EXPECT_FALSE(
        net->renegotiateBandwidth(stream.handle, 60.0 / round * link));
    for (std::size_t k = 0; k < path.size(); ++k) {
        SCOPED_TRACE(k);
        MmrRouter &r = net->routerAt(path[k].node);
        const SegmentParams seg = r.segment(path[k].in);
        EXPECT_EQ(seg.allocCycles, before[k].allocCycles);
        EXPECT_EQ(seg.interArrival, before[k].interArrival);
        EXPECT_EQ(r.admission().allocatedCycles(seg.out), registers[k]);
    }
}

TEST_F(NetworkTest, VbrPriorityPropagates)
{
    build(Topology::mesh2d(2, 2));
    const auto o = net->openVbr(0, 3, 4 * kMbps, 12 * kMbps, 1);
    ASSERT_TRUE(o.accepted);
    ASSERT_TRUE(net->setConnectionPriority(o.handle, 5));
    for (const Network::PathHop &hop : net->connectionPath(o.handle))
        EXPECT_EQ(net->routerAt(hop.node).segment(hop.in).priority, 5);
}

TEST_F(NetworkTest, DatagramsDeliverAcrossTheNetwork)
{
    build(Topology::mesh2d(3, 3));
    net->endToEnd().startMeasurement(0);
    std::uint32_t seq = 0;
    for (NodeId src = 0; src < 9; ++src) {
        for (NodeId dst = 0; dst < 9; ++dst) {
            if (src == dst)
                continue;
            net->sendDatagram(src, dst, TrafficClass::BestEffort,
                              0x4000 + src, kernel.now(), seq++);
            run(2);
        }
    }
    run(400);
    EXPECT_EQ(net->datagramsSent(), 72u);
    EXPECT_EQ(net->datagramsDelivered(), 72u);
    EXPECT_EQ(net->datagramDrops(), 0u);
    EXPECT_EQ(net->pendingDatagrams(), 0u);
}

TEST_F(NetworkTest, DatagramBurstToOneHotspotAllArrive)
{
    build(Topology::star(5));
    // Everyone floods node 1 simultaneously; VC-per-hop reservation
    // plus retries must deliver every packet eventually.
    std::uint32_t seq = 0;
    for (int wave = 0; wave < 10; ++wave) {
        for (NodeId src = 2; src <= 5; ++src)
            net->sendDatagram(src, 1, TrafficClass::BestEffort,
                              0x5000 + src, kernel.now(), seq++);
        run(1);
    }
    run(600);
    EXPECT_EQ(net->datagramsDelivered(), net->datagramsSent());
    EXPECT_EQ(net->datagramDrops(), 0u);
}

TEST_F(NetworkTest, ControlDatagramsAlsoDeliver)
{
    build(Topology::ring(5));
    net->sendDatagram(0, 2, TrafficClass::Control, 0x6000,
                      kernel.now());
    run(100);
    EXPECT_EQ(net->datagramsDelivered(), 1u);
}

TEST_F(NetworkTest, LocalDatagramShortCircuits)
{
    build(Topology::ring(3));
    net->sendDatagram(1, 1, TrafficClass::BestEffort, 0x7000,
                      kernel.now());
    EXPECT_EQ(net->datagramsDelivered(), 1u);
}

TEST_F(NetworkTest, StreamsAndDatagramsCoexist)
{
    build(Topology::mesh2d(3, 3));
    const auto o = net->openCbr(0, 8, 300 * kMbps);
    ASSERT_TRUE(o.accepted);
    std::uint32_t injected = 0;
    std::uint32_t dg = 0;
    for (Cycle t = 0; t < 600; ++t) {
        if (t % 5 == 0) {
            Flit f;
            f.seq = injected++;
            ASSERT_TRUE(net->inject(o.handle, f, kernel.now()));
        }
        if (t % 11 == 0) {
            net->sendDatagram(4, 2, TrafficClass::BestEffort, 0x8000,
                              kernel.now(), dg++);
        }
        run(1);
    }
    run(300);
    EXPECT_EQ(net->datagramsDelivered(), dg);
    const ConnectionRecorder *rec = net->endToEnd().connection(o.id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->flitCount(), injected);
}

TEST_F(NetworkTest, GreedySetupPolicyIsSupported)
{
    build(Topology::mesh2d(3, 3));
    const auto o =
        net->openCbr(0, 8, 100 * kMbps, SetupPolicy::Greedy);
    EXPECT_TRUE(o.accepted) << "greedy works fine on an empty network";
    EXPECT_EQ(o.backtrackSteps, 0u);
}

TEST_F(NetworkTest, CreditBackpressureReachesTheSource)
{
    // Two saturating streams share one ring link; the switch can only
    // carry one flit per cycle, so sources see inject() refusals once
    // buffers fill (flow control reaching the interface, §4.2).
    build(Topology::ring(4));
    const auto a = net->openCbr(0, 2, 1.0 * kGbps);
    ASSERT_TRUE(a.accepted);
    std::uint32_t rejected = 0;
    for (Cycle t = 0; t < 300; ++t) {
        Flit f1, f2;
        if (!net->inject(a.handle, f1, kernel.now()))
            ++rejected;
        if (!net->inject(a.handle, f2, kernel.now()))
            ++rejected;
        run(1);
    }
    EXPECT_GT(rejected, 0u)
        << "injecting 2 flits/cycle into a 1 flit/cycle path must "
           "back-pressure";
    EXPECT_GT(net->injectRejects(), 0u);
}

} // namespace
} // namespace mmr
