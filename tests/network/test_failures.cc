/**
 * @file
 * Fault-injection tests: link failures must lose only the flits on
 * the dead wire, tear the affected connections down cleanly (all
 * admission and VC state released), reroute datagrams over the
 * surviving up*-down* structure, keep probes away from dead links,
 * let interfaces re-establish their streams through a zero-time
 * RecoveryManager, and keep every routing cache in step with the
 * topology's link state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "fault/recovery.hh"
#include "harness/network_experiment.hh"
#include "network/interface.hh"
#include "network/network.hh"
#include "sim/kernel.hh"

namespace mmr
{
namespace
{

NetworkConfig
cfg()
{
    NetworkConfig c;
    c.router.vcsPerPort = 16;
    c.router.candidates = 4;
    c.seed = 23;
    return c;
}

/** Re-setup inside the failure hook, one zero-time EPB attempt. */
RecoveryConfig
zeroTimeRecovery()
{
    RecoveryConfig c;
    c.zeroTime = true;
    return c;
}

class FailureTest : public ::testing::Test
{
  protected:
    void
    build(const Topology &t)
    {
        net = std::make_unique<Network>(t, cfg());
        kernel.add(net.get());
    }

    std::unique_ptr<Network> net;
    Kernel kernel;
};

TEST_F(FailureTest, FailLinkValidation)
{
    build(Topology::ring(4));
    EXPECT_FALSE(net->failLink(0, 2)) << "not adjacent";
    EXPECT_TRUE(net->failLink(0, 1));
    EXPECT_FALSE(net->failLink(0, 1)) << "already down";
    EXPECT_FALSE(net->topology().linkUp(0, 1));
    EXPECT_FALSE(net->topology().linkUp(1, 0));
    EXPECT_TRUE(net->topology().linkUp(1, 2));
    EXPECT_TRUE(net->repairLink(0, 1));
    EXPECT_TRUE(net->topology().linkUp(0, 1));
    EXPECT_FALSE(net->repairLink(0, 1)) << "already up";
}

TEST_F(FailureTest, ConnectionsCrossingTheLinkFail)
{
    build(Topology::ring(4));
    const auto o = net->openCbr(0, 1, 10 * kMbps);
    ASSERT_TRUE(o.accepted);
    const auto other = net->openCbr(2, 3, 10 * kMbps);
    ASSERT_TRUE(other.accepted);

    ASSERT_TRUE(net->failLink(0, 1));
    EXPECT_EQ(net->connectionState(o.handle), Network::ConnState::Failed);
    EXPECT_EQ(net->connectionState(other.handle), Network::ConnState::Open)
        << "connections elsewhere are untouched";
    EXPECT_EQ(net->connectionsFailed(), 1u);
    EXPECT_FALSE(net->inject(o.handle, Flit{}, kernel.now()))
        << "a failed connection refuses new flits";

    // The failed connection drains away completely.
    kernel.run(50);
    EXPECT_EQ(net->connectionState(o.handle), Network::ConnState::Gone);
    // Its resources on the surviving side are released.
    MmrRouter &r0 = net->routerAt(0);
    const Topology &t = net->topology();
    EXPECT_EQ(r0.admission().allocatedCycles(t.portTowards(0, 1)), 0u);
    EXPECT_EQ(r0.routing().freeOutputVcCount(t.portTowards(0, 1)), 16u);
}

// Regression: failLink() used to walk the PCS table in unordered_map
// bucket order, so the connection-failure hook fired in an order that
// depended on the standard library's hash layout — and since the
// recovery manager draws backoff jitter from its RNG per hook call,
// the whole recovery schedule (and every digest downstream of it)
// inherited that layout.  The teardown walk must visit crossing
// connections in ascending id (label) order, always — not in the
// order of the pool slots they hold.
TEST_F(FailureTest, FailureHookFiresInAscendingIdOrder)
{
    build(Topology::ring(4));
    // Many connections over the same link.  The first six close and
    // drain, and six more reopen into their slots: the free list hands
    // them out highest slot first, so slot 0 ends up with the highest
    // label and slot order disagrees with label order.
    std::vector<Network::SetupOutcome> first;
    for (int i = 0; i < 12; ++i) {
        first.push_back(net->openCbr(0, 1, 1 * kMbps));
        ASSERT_TRUE(first.back().accepted) << "connection " << i;
    }
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(net->closeConnection(first[i].handle));
    kernel.run(10);
    ASSERT_EQ(net->openConnectionCount(), 6u);
    std::vector<ConnId> opened;
    for (int i = 6; i < 12; ++i)
        opened.push_back(first[i].id);
    for (int i = 0; i < 6; ++i) {
        const auto o = net->openCbr(0, 1, 1 * kMbps);
        ASSERT_TRUE(o.accepted) << "reopened connection " << i;
        opened.push_back(o.id);
        if (i == 5) {
            ASSERT_EQ(o.handle.slot, first[0].handle.slot)
                << "the last reopened connection takes slot 0";
        }
    }
    std::vector<ConnId> fired;
    net->setConnectionFailureHook(
        [&fired](ConnId id, NodeId, NodeId, TrafficClass) {
            fired.push_back(id);
        });
    ASSERT_TRUE(net->failLink(0, 1));
    ASSERT_EQ(fired.size(), opened.size());
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_LT(fired[i - 1], fired[i])
            << "hook order must be ascending by connection id, not "
               "hash-bucket order";
    // And the set is exactly the connections that crossed the link.
    std::sort(opened.begin(), opened.end());
    EXPECT_EQ(fired, opened);
}

TEST_F(FailureTest, InFlightFlitsAreLostNotWedged)
{
    build(Topology::ring(4));
    const auto o = net->openCbr(0, 1, 1.0 * kGbps);
    ASSERT_TRUE(o.accepted);
    // Fill the pipe, then cut the wire mid-stream.
    for (int i = 0; i < 6; ++i) {
        Flit f;
        f.seq = static_cast<std::uint32_t>(i);
        net->inject(o.handle, f, kernel.now());
        kernel.step();
    }
    const auto delivered_before = net->flitsDelivered();
    ASSERT_TRUE(net->failLink(0, 1));
    kernel.run(100);
    EXPECT_GT(net->flitsLostToFailures(), 0u);
    // Whatever was not lost was delivered; nothing is stuck.
    EXPECT_EQ(net->connectionState(o.handle), Network::ConnState::Gone);
    EXPECT_GE(net->flitsDelivered(), delivered_before);
}

TEST_F(FailureTest, DatagramsRerouteAroundTheFailure)
{
    build(Topology::ring(5));
    ASSERT_TRUE(net->failLink(0, 1));
    // 0 -> 1 must now go the long way round; it still arrives.
    net->sendDatagram(0, 1, TrafficClass::BestEffort, 0x11, kernel.now());
    kernel.run(200);
    EXPECT_EQ(net->datagramsDelivered(), 1u);
    EXPECT_EQ(net->datagramDrops(), 0u);
    const auto *rec = net->endToEnd().connection(0x11);
    ASSERT_NE(rec, nullptr);
    // 4 hops x (switch + link) instead of 1: visibly longer.
    EXPECT_GE(rec->delay().min(), 8.0);
}

TEST_F(FailureTest, PartitionDropsUnroutableDatagrams)
{
    Topology line(3);
    line.addLink(0, 1);
    line.addLink(1, 2);
    build(line);
    ASSERT_TRUE(net->failLink(1, 2));
    net->sendDatagram(0, 2, TrafficClass::BestEffort, 0x12, kernel.now());
    kernel.run(100);
    EXPECT_EQ(net->datagramsDelivered(), 0u);
    EXPECT_EQ(net->datagramDrops(), 1u) << "no route: counted drop";
    // Repair restores connectivity for subsequent traffic.
    ASSERT_TRUE(net->repairLink(1, 2));
    net->sendDatagram(0, 2, TrafficClass::BestEffort, 0x13, kernel.now());
    kernel.run(100);
    EXPECT_EQ(net->datagramsDelivered(), 1u);
}

TEST_F(FailureTest, NewSetupsAvoidDeadLinks)
{
    build(Topology::ring(4));
    ASSERT_TRUE(net->failLink(0, 1));
    // Algorithmic setup: the minimal path over the dead link is gone;
    // the long way round (0-3-2-1) is now the only minimal surviving
    // path.
    const auto o = net->openCbr(0, 1, 10 * kMbps);
    ASSERT_TRUE(o.accepted);
    const auto path = net->connectionPath(o.handle);
    ASSERT_EQ(path.size(), 4u); // 0, 3, 2, 1
    EXPECT_EQ(path[1].node, 3u);

    // Timed probe: same avoidance.
    const auto token = net->openCbrTimed(0, 1, 10 * kMbps, kernel.now());
    kernel.run(200);
    Network::SetupOutcome r;
    ASSERT_TRUE(net->takeTimedResult(token, r));
    EXPECT_TRUE(r.accepted);
    EXPECT_EQ(r.pathLength, 4u);
}

TEST_F(FailureTest, SetupRefusedAcrossAPartition)
{
    Topology line(2);
    line.addLink(0, 1);
    build(line);
    ASSERT_TRUE(net->failLink(0, 1));
    EXPECT_FALSE(net->openCbr(0, 1, 10 * kMbps).accepted);
    const auto token = net->openCbrTimed(0, 1, 10 * kMbps, kernel.now());
    kernel.run(50);
    Network::SetupOutcome r;
    ASSERT_TRUE(net->takeTimedResult(token, r));
    EXPECT_FALSE(r.accepted);
}

TEST_F(FailureTest, InterfaceReestablishesItsStreams)
{
    build(Topology::ring(4));
    RecoveryManager recovery(*net, zeroTimeRecovery(), 99);
    NetworkInterface ni(*net, 0, 99);
    ni.attachRecovery(&recovery);
    ASSERT_TRUE(ni.openCbrStream(1, 10 * kMbps));

    for (Cycle t = 0; t < 500; ++t) {
        ni.tick(kernel.now());
        kernel.step();
    }
    ASSERT_TRUE(net->failLink(0, 1));
    // The replacement is set up inside failLink(), so the first tick
    // after it swaps the stream over.
    EXPECT_EQ(recovery.connectionsRecovered(), 1u);
    EXPECT_EQ(recovery.activeRecoveries(), 0u);
    ni.tick(kernel.now());
    kernel.step();
    EXPECT_EQ(ni.reestablishedStreams(), 1u);
    for (Cycle t = 1; t < 2000; ++t) {
        ni.tick(kernel.now());
        kernel.step();
    }
    EXPECT_EQ(ni.lostStreams(), 1u);
    EXPECT_EQ(ni.reestablishedStreams(), 1u);
    EXPECT_EQ(ni.establishedStreams(), 1u);
    EXPECT_EQ(ni.flitsDroppedInRecovery(), 0u)
        << "zero-time recovery never leaves a stream waiting";
    // The replacement connection flows over the surviving path.
    EXPECT_EQ(net->connectionState(ni.handle(0)), Network::ConnState::Open);
    const auto path = net->connectionPath(ni.handle(0));
    ASSERT_GE(path.size(), 2u);
    EXPECT_EQ(path[1].node, 3u) << "rerouted the long way round";
}

TEST_F(FailureTest, WithoutRecoveryStreamsAreRetired)
{
    build(Topology::ring(4));
    NetworkInterface ni(*net, 0, 100);
    ASSERT_TRUE(ni.openCbrStream(1, 10 * kMbps));
    ASSERT_TRUE(net->failLink(0, 1));
    for (Cycle t = 0; t < 100; ++t) {
        ni.tick(kernel.now());
        kernel.step();
    }
    EXPECT_EQ(ni.lostStreams(), 1u);
    EXPECT_EQ(ni.reestablishedStreams(), 0u);
    EXPECT_EQ(ni.establishedStreams(), 0u);
}

TEST_F(FailureTest, ZeroTimeRecoveryRefusedAcrossAPartitionRetires)
{
    Topology line(2);
    line.addLink(0, 1);
    build(line);
    RecoveryManager recovery(*net, zeroTimeRecovery(), 101);
    NetworkInterface ni(*net, 0, 101);
    ni.attachRecovery(&recovery);
    ASSERT_TRUE(ni.openCbrStream(1, 10 * kMbps));

    ASSERT_TRUE(net->failLink(0, 1));
    // One refused attempt inside failLink(), no retry schedule.
    EXPECT_EQ(recovery.retriesLaunched(), 1u);
    EXPECT_EQ(recovery.connectionsAbandoned(), 1u);
    EXPECT_EQ(recovery.activeRecoveries(), 0u);
    ni.tick(kernel.now());
    kernel.step();
    EXPECT_EQ(ni.lostStreams(), 1u);
    EXPECT_EQ(ni.reestablishedStreams(), 0u);
    EXPECT_EQ(ni.establishedStreams(), 0u);
    EXPECT_EQ(ni.flitsDroppedInRecovery(), 0u);
}

TEST_F(FailureTest, SurvivingTrafficKeepsFlowing)
{
    build(Topology::mesh2d(3, 3));
    const auto keep = net->openCbr(6, 8, 100 * kMbps);
    ASSERT_TRUE(keep.accepted);
    ASSERT_TRUE(net->failLink(0, 1));
    net->endToEnd().startMeasurement(0);
    for (std::uint32_t i = 0; i < 10; ++i) {
        Flit f;
        f.seq = i;
        ASSERT_TRUE(net->inject(keep.handle, f, kernel.now()));
        kernel.run(13);
    }
    kernel.run(100);
    const auto *rec = net->endToEnd().connection(keep.id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->delay().count(), 10u);
}

/**
 * The routing caches follow the topology's link epoch.  A random
 * sequence of fails and repairs (each keeping the graph connected) is
 * applied, and every cache is queried between events so that each is
 * warm when the next one lands.  After every event the up*-down*
 * levels and reachability equal those of a routing built fresh on a
 * copy of the topology, and a zero-time setup between every pair
 * takes a minimal surviving path that crosses no down link.
 */
TEST(LinkEpoch, RoutingCachesFollowFailAndRepair)
{
    for (const char *spec : {"mesh:4x4", "irregular:16:8:4"}) {
        for (const std::uint64_t seed : {1, 2, 3}) {
            SCOPED_TRACE(std::string(spec) + " seed " +
                         std::to_string(seed));
            Network net(topologyFromSpec(spec, seed), cfg());
            const Topology &topo = net.topology();
            const unsigned n = topo.numNodes();
            std::vector<std::pair<NodeId, NodeId>> links;
            for (NodeId a = 0; a < n; ++a)
                for (const auto &p : topo.ports(a))
                    if (a < p.neighbor)
                        links.emplace_back(a, p.neighbor);

            Rng rng(seed);
            PathSearch search;
            const auto check = [&](int event) {
                const Topology copy = topo;
                const UpDownRouting fresh(copy);
                for (NodeId at = 0; at < n; ++at) {
                    ASSERT_EQ(net.updown().level(at), fresh.level(at))
                        << "event " << event << " node " << at;
                    for (NodeId dst = 0; dst < n; ++dst)
                        for (const bool down : {false, true})
                            ASSERT_EQ(
                                net.updown().reachable(at, dst, down),
                                fresh.reachable(at, dst, down))
                                << "event " << event << ": " << at
                                << " -> " << dst << " down " << down;
                }
                for (NodeId src = 0; src < n; ++src) {
                    for (NodeId dst = 0; dst < n; ++dst) {
                        if (src == dst)
                            continue;
                        SetupRequest req;
                        req.src = src;
                        req.dst = dst;
                        req.allocCycles = 1;
                        ASSERT_TRUE(net.probes().establish(
                            req, SetupPolicy::Epb, rng, search))
                            << "event " << event << ": " << src
                            << " -> " << dst;
                        EXPECT_EQ(search.hops.size(),
                                  copy.distance(src, dst) + 1)
                            << "a minimal surviving path";
                        for (std::size_t k = 0; k + 1 < search.hops.size();
                             ++k) {
                            const ReservedHop &hop = search.hops[k];
                            EXPECT_TRUE(topo.ports(hop.node)[hop.out].up)
                                << "event " << event << ": " << src
                                << " -> " << dst << " crosses a down link";
                        }
                        search.releaseAll();
                    }
                }
            };

            check(-1);
            for (int event = 0; event < 40; ++event) {
                const auto [a, b] = links[rng.below(links.size())];
                if (topo.linkUp(a, b)) {
                    Topology cut = topo;
                    cut.setLinkUp(a, b, false);
                    if (!cut.connected())
                        continue;
                    ASSERT_TRUE(net.failLink(a, b));
                } else {
                    ASSERT_TRUE(net.repairLink(a, b));
                }
                check(event);
            }
        }
    }
}

} // namespace
} // namespace mmr
