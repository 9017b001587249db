/**
 * @file
 * Network-level property tests: determinism, resource integrity after
 * arbitrary open/close/datagram churn, EPB termination bounds, and
 * service-class ordering of datagrams.
 */

#include <gtest/gtest.h>

#include <memory>

#include "network/network.hh"
#include "sim/kernel.hh"

namespace mmr
{
namespace
{

NetworkConfig
cfg(std::uint64_t seed)
{
    NetworkConfig c;
    c.router.vcsPerPort = 16;
    c.router.candidates = 4;
    c.seed = seed;
    return c;
}

/** One full churn scenario; returns a digest of observable stats. */
std::vector<std::uint64_t>
runChurn(std::uint64_t seed)
{
    Rng rng(seed);
    const Topology topo = Topology::irregular(10, 5, 4, rng);
    Network net(topo, cfg(seed));
    Kernel kernel;
    kernel.add(&net);

    std::vector<Network::Handle> open;
    std::uint32_t flow = 0x4100;
    for (int step = 0; step < 400; ++step) {
        const auto roll = rng.below(100);
        if (roll < 20) {
            const NodeId src = static_cast<NodeId>(rng.below(10));
            const NodeId dst =
                static_cast<NodeId>((src + 1 + rng.below(9)) % 10);
            const auto o =
                net.openCbr(src, dst, rng.pick(paperRateLadder()));
            if (o.accepted)
                open.push_back(o.handle);
        } else if (roll < 30 && !open.empty()) {
            const auto i = rng.below(open.size());
            net.closeConnection(open[i]);
            open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
        } else if (roll < 60) {
            const NodeId src = static_cast<NodeId>(rng.below(10));
            const NodeId dst = static_cast<NodeId>(rng.below(10));
            if (src != dst)
                net.sendDatagram(src, dst, TrafficClass::BestEffort,
                                 flow++, kernel.now());
        } else if (!open.empty()) {
            Flit f;
            net.inject(open[rng.below(open.size())], f, kernel.now());
        }
        kernel.run(1 + rng.below(4));
    }
    kernel.run(2000); // drain

    return {net.flitsDelivered(), net.datagramsSent(),
            net.datagramsDelivered(), net.datagramDrops(),
            net.openConnectionCount(), net.injectRejects(),
            net.pendingDatagrams()};
}

TEST(NetworkProperty, DeterministicAcrossRuns)
{
    EXPECT_EQ(runChurn(31), runChurn(31));
    EXPECT_NE(runChurn(31), runChurn(32));
}

TEST(NetworkProperty, ChurnNeverLosesDatagrams)
{
    for (std::uint64_t seed : {41u, 42u, 43u}) {
        const auto digest = runChurn(seed);
        EXPECT_EQ(digest[1], digest[2]) << "sent == delivered, seed "
                                        << seed;
        EXPECT_EQ(digest[3], 0u) << "no drops, seed " << seed;
        EXPECT_EQ(digest[6], 0u) << "nothing stuck, seed " << seed;
    }
}

TEST(NetworkProperty, ResourcesDrainToZeroAfterFullTeardown)
{
    Rng rng(7);
    const Topology topo = Topology::irregular(8, 4, 4, rng);
    Network net(topo, cfg(7));
    Kernel kernel;
    kernel.add(&net);

    std::vector<Network::Handle> handles;
    for (int i = 0; i < 30; ++i) {
        const NodeId src = static_cast<NodeId>(rng.below(8));
        const NodeId dst =
            static_cast<NodeId>((src + 1 + rng.below(7)) % 8);
        const auto o = net.openCbr(src, dst, 5 * kMbps);
        if (o.accepted)
            handles.push_back(o.handle);
    }
    ASSERT_FALSE(handles.empty());
    for (const Network::Handle h : handles) {
        Flit f;
        net.inject(h, f, kernel.now());
    }
    kernel.run(50);
    for (const Network::Handle h : handles)
        ASSERT_TRUE(net.closeConnection(h));
    kernel.run(500);
    EXPECT_EQ(net.openConnectionCount(), 0u);

    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        MmrRouter &r = net.routerAt(n);
        for (PortId p = 0; p < r.config().numPorts; ++p) {
            EXPECT_EQ(r.admission().allocatedCycles(p), 0u)
                << "node " << n << " port " << p;
            EXPECT_EQ(r.routing().freeOutputVcCount(p), 16u)
                << "node " << n << " port " << p;
            EXPECT_EQ(r.routing().freeInputVcCount(p), 16u)
                << "node " << n << " port " << p;
        }
    }
}

TEST(NetworkProperty, EpbProbeWorkIsBounded)
{
    // EPB never searches a link twice (history store), so the probe
    // walk is bounded by the link count even on a hostile network
    // where everything is saturated.
    Rng rng(9);
    const Topology topo = Topology::irregular(12, 10, 5, rng);
    Network net(topo, cfg(9));
    // Saturate every link's admission so probes must exhaust the
    // search space.
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        MmrRouter &r = net.routerAt(n);
        for (PortId p = 0; p < topo.degree(n); ++p)
            ASSERT_TRUE(r.admission().tryAdmitCbr(
                p, r.admission().reservableCycles()));
    }
    for (int i = 0; i < 20; ++i) {
        const NodeId src = static_cast<NodeId>(rng.below(12));
        const NodeId dst =
            static_cast<NodeId>((src + 1 + rng.below(11)) % 12);
        const auto o = net.openCbr(src, dst, 1 * kMbps);
        EXPECT_FALSE(o.accepted);
        EXPECT_LE(o.forwardSteps + o.backtrackSteps,
                  2 * topo.numLinks() + 2);
    }
}

TEST(NetworkProperty, ControlDatagramsOvertakeBestEffort)
{
    // Saturate a path with best-effort packets, then send one control
    // packet: it must not queue behind the whole backlog.
    NetworkConfig c = cfg(11);
    Topology line(2);
    line.addLink(0, 1);
    Network net(line, c);
    Kernel kernel;
    kernel.add(&net);

    std::uint32_t seq = 0;
    for (int i = 0; i < 12; ++i)
        net.sendDatagram(0, 1, TrafficClass::BestEffort, 0x51,
                         kernel.now(), seq++);
    net.sendDatagram(0, 1, TrafficClass::Control, 0x52, kernel.now());
    kernel.run(200);

    const auto *be = net.endToEnd().connection(0x51);
    const auto *ctl = net.endToEnd().connection(0x52);
    ASSERT_NE(be, nullptr);
    ASSERT_NE(ctl, nullptr);
    EXPECT_LT(ctl->delay().mean(), be->delay().mean())
        << "control tier pre-empts queued best-effort traffic";
}

} // namespace
} // namespace mmr
