/**
 * @file
 * RecoveryManager tests: EPB re-route after a link failure, clean
 * abandonment when the only legal path vanished (all reservations
 * released), recovery after a mid-backoff repair, bounded retry
 * budgets, replacement re-adoption, the zero-time mode, the bounded
 * status table, and the NetworkInterface integration (stream swaps
 * onto the replacement connection).
 */

#include <gtest/gtest.h>

#include <memory>

#include "fault/recovery.hh"
#include "network/interface.hh"
#include "network/network.hh"
#include "sim/kernel.hh"

namespace mmr
{
namespace
{

NetworkConfig
netCfg()
{
    NetworkConfig c;
    c.router.vcsPerPort = 16;
    c.router.candidates = 4;
    c.seed = 23;
    return c;
}

RecoverySpec
cbrSpec(NodeId src, NodeId dst, double rate_bps)
{
    RecoverySpec s;
    s.src = src;
    s.dst = dst;
    s.klass = TrafficClass::CBR;
    s.rateOrMeanBps = rate_bps;
    return s;
}

class RecoveryTest : public ::testing::Test
{
  protected:
    void
    build(const Topology &t, RecoveryConfig cfg = RecoveryConfig{})
    {
        net = std::make_unique<Network>(t, netCfg());
        mgr = std::make_unique<RecoveryManager>(*net, cfg, 77);
        kernel.add(mgr.get(), "recovery-manager");
        kernel.add(net.get(), "network");
    }

    /** Expect zero reserved bandwidth and all VCs free everywhere. */
    void
    expectAllReservationsReleased()
    {
        const Topology &t = net->topology();
        for (NodeId n = 0; n < t.numNodes(); ++n) {
            auto &r = net->routerAt(n);
            for (const auto &pi : t.ports(n)) {
                EXPECT_EQ(r.admission().allocatedCycles(pi.localPort),
                          0u)
                    << "node " << n << " port " << pi.localPort;
                EXPECT_EQ(r.routing().freeOutputVcCount(pi.localPort),
                          16u)
                    << "node " << n << " port " << pi.localPort;
            }
        }
    }

    /**
     * Expect every setup outcome the manager launched to be taken
     * already: it is the fixture's only timed prober, so no finished
     * setup may still hold its probe slot.
     */
    void
    expectAllOutcomesTaken()
    {
        ASSERT_GE(mgr->retriesLaunched(), 1u);
        EXPECT_EQ(net->probes().untakenOutcomes(), 0u);
    }

    std::unique_ptr<Network> net;
    std::unique_ptr<RecoveryManager> mgr;
    Kernel kernel;
};

TEST_F(RecoveryTest, ReroutesAroundFailedLink)
{
    build(Topology::ring(4));
    const auto o = net->openCbr(0, 1, 10 * kMbps);
    ASSERT_TRUE(o.accepted);
    mgr->adopt(o.id, cbrSpec(0, 1, 10 * kMbps));

    ASSERT_TRUE(net->failLink(0, 1));
    EXPECT_EQ(mgr->failuresSeen(), 1u);
    kernel.run(4000);

    RecoveryStatus st;
    ASSERT_TRUE(mgr->pollStatus(o.id, st));
    ASSERT_EQ(st.state, RecoveryState::Recovered);
    EXPECT_NE(st.replacement, o.id);
    EXPECT_EQ(net->connectionState(st.replacementHandle),
              Network::ConnState::Open);
    EXPECT_EQ(mgr->connectionsRecovered(), 1u);
    EXPECT_EQ(mgr->activeRecoveries(), 0u);
    RecoveryStatus again;
    EXPECT_FALSE(mgr->pollStatus(o.id, again))
        << "a final status is dropped once read";

    // The replacement was found by EPB over the surviving ring: the
    // long way round, 0-3-2-1.
    const auto path = net->connectionPath(st.replacementHandle);
    ASSERT_EQ(path.size(), 4u);
    EXPECT_EQ(path[0].node, 0u);
    EXPECT_EQ(path[1].node, 3u);
    EXPECT_EQ(path[2].node, 2u);
    EXPECT_EQ(path[3].node, 1u);
    expectAllOutcomesTaken();
}

TEST_F(RecoveryTest, OnlyPathVanishedAbandonsCleanly)
{
    // 0-1-2 line: killing 1-2 leaves no legal path from 0 to 2, so
    // every re-setup must be refused and the recovery abandoned with
    // nothing left reserved anywhere.
    Topology line(3);
    line.addLink(0, 1);
    line.addLink(1, 2);
    RecoveryConfig cfg;
    cfg.maxRetries = 3;
    cfg.baseBackoffCycles = 16;
    cfg.maxBackoffCycles = 64;
    cfg.setupTimeoutCycles = 256;
    build(line, cfg);

    const auto o = net->openCbr(0, 2, 10 * kMbps);
    ASSERT_TRUE(o.accepted);
    mgr->adopt(o.id, cbrSpec(0, 2, 10 * kMbps));

    ASSERT_TRUE(net->failLink(1, 2));
    kernel.run(4000);

    RecoveryStatus st;
    ASSERT_TRUE(mgr->pollStatus(o.id, st));
    EXPECT_EQ(st.state, RecoveryState::Abandoned);
    EXPECT_EQ(st.attempts, cfg.maxRetries);
    EXPECT_EQ(mgr->retriesLaunched(), cfg.maxRetries);
    EXPECT_EQ(mgr->connectionsAbandoned(), 1u);
    EXPECT_EQ(mgr->connectionsRecovered(), 0u);
    EXPECT_EQ(mgr->activeRecoveries(), 0u);
    EXPECT_EQ(net->pendingSetups(), 0u);
    expectAllReservationsReleased();
    expectAllOutcomesTaken();
}

TEST_F(RecoveryTest, RepairMidBackoffLetsRecoverySucceed)
{
    Topology line(3);
    line.addLink(0, 1);
    line.addLink(1, 2);
    RecoveryConfig cfg;
    cfg.maxRetries = 12;
    cfg.baseBackoffCycles = 64;
    build(line, cfg);

    const auto o = net->openCbr(0, 2, 10 * kMbps);
    ASSERT_TRUE(o.accepted);
    mgr->adopt(o.id, cbrSpec(0, 2, 10 * kMbps));

    ASSERT_TRUE(net->failLink(1, 2));
    kernel.run(300); // burn a few refused attempts
    EXPECT_GE(mgr->retriesLaunched(), 1u);
    // An unresolved recovery stays readable.
    RecoveryStatus st;
    ASSERT_TRUE(mgr->pollStatus(o.id, st));
    EXPECT_EQ(st.state, RecoveryState::Recovering);
    ASSERT_TRUE(mgr->pollStatus(o.id, st));
    EXPECT_EQ(st.state, RecoveryState::Recovering);
    ASSERT_TRUE(net->repairLink(1, 2));
    kernel.run(6000);

    ASSERT_TRUE(mgr->pollStatus(o.id, st));
    EXPECT_EQ(st.state, RecoveryState::Recovered);
    EXPECT_LE(st.attempts, cfg.maxRetries);
    EXPECT_EQ(net->connectionState(st.replacementHandle),
              Network::ConnState::Open);
}

TEST_F(RecoveryTest, ReplacementIsAdoptedForTheNextFailure)
{
    build(Topology::ring(4));
    const auto o = net->openCbr(0, 1, 10 * kMbps);
    ASSERT_TRUE(o.accepted);
    mgr->adopt(o.id, cbrSpec(0, 1, 10 * kMbps));

    ASSERT_TRUE(net->failLink(0, 1));
    kernel.run(4000);
    RecoveryStatus first;
    ASSERT_TRUE(mgr->pollStatus(o.id, first));
    ASSERT_EQ(first.state, RecoveryState::Recovered);
    const ConnId second_id = first.replacement;
    EXPECT_TRUE(mgr->adopted(second_id))
        << "the replacement must be re-adopted automatically";

    // Kill a link on the replacement path (0-3-2-1).  The direct link
    // is back up, so the second recovery lands on it.
    ASSERT_TRUE(net->repairLink(0, 1));
    ASSERT_TRUE(net->failLink(2, 3));
    kernel.run(4000);

    RecoveryStatus chained;
    ASSERT_TRUE(mgr->pollStatus(second_id, chained));
    EXPECT_EQ(chained.state, RecoveryState::Recovered);
    const auto path = net->connectionPath(chained.replacementHandle);
    ASSERT_EQ(path.size(), 2u);
    EXPECT_EQ(path[0].node, 0u);
    EXPECT_EQ(path[1].node, 1u);
    EXPECT_EQ(mgr->connectionsRecovered(), 2u);
}

TEST_F(RecoveryTest, UnadoptedConnectionsAreIgnored)
{
    build(Topology::ring(4));
    const auto o = net->openCbr(0, 1, 10 * kMbps);
    ASSERT_TRUE(o.accepted);

    ASSERT_TRUE(net->failLink(0, 1));
    kernel.run(1000);
    EXPECT_EQ(mgr->failuresSeen(), 0u);
    RecoveryStatus st;
    EXPECT_FALSE(mgr->pollStatus(o.id, st));
    EXPECT_EQ(mgr->retriesLaunched(), 0u);
}

TEST_F(RecoveryTest, ForgetStopsRecovery)
{
    build(Topology::ring(4));
    const auto o = net->openCbr(0, 1, 10 * kMbps);
    ASSERT_TRUE(o.accepted);
    mgr->adopt(o.id, cbrSpec(0, 1, 10 * kMbps));
    mgr->forget(o.id);

    ASSERT_TRUE(net->failLink(0, 1));
    kernel.run(1000);
    EXPECT_EQ(mgr->failuresSeen(), 0u);
    RecoveryStatus st;
    EXPECT_FALSE(mgr->pollStatus(o.id, st));
}

TEST_F(RecoveryTest, DisabledManagerInstallsNoHook)
{
    RecoveryConfig cfg;
    cfg.enabled = false;
    build(Topology::ring(4), cfg);
    const auto o = net->openCbr(0, 1, 10 * kMbps);
    ASSERT_TRUE(o.accepted);
    mgr->adopt(o.id, cbrSpec(0, 1, 10 * kMbps));

    ASSERT_TRUE(net->failLink(0, 1));
    kernel.run(1000);
    EXPECT_EQ(mgr->failuresSeen(), 0u);
    EXPECT_EQ(mgr->retriesLaunched(), 0u);
}

TEST_F(RecoveryTest, ZeroTimeModeResolvesInsideFailLink)
{
    RecoveryConfig cfg;
    cfg.zeroTime = true;
    build(Topology::ring(4), cfg);
    const auto o = net->openCbr(0, 1, 10 * kMbps);
    ASSERT_TRUE(o.accepted);
    mgr->adopt(o.id, cbrSpec(0, 1, 10 * kMbps));

    // Recovered before failLink() returns: one zero-time EPB setup,
    // no probe, no retry schedule, no setup timer installed.
    ASSERT_TRUE(net->failLink(0, 1));
    RecoveryStatus st;
    ASSERT_TRUE(mgr->pollStatus(o.id, st));
    ASSERT_EQ(st.state, RecoveryState::Recovered);
    EXPECT_EQ(st.attempts, 1u);
    EXPECT_EQ(mgr->retriesLaunched(), 1u);
    EXPECT_EQ(mgr->activeRecoveries(), 0u);
    EXPECT_EQ(net->pendingSetups(), 0u);
    EXPECT_EQ(net->probes().setupTimeout(), 0u);
    const auto path = net->connectionPath(st.replacementHandle);
    ASSERT_EQ(path.size(), 4u);
    EXPECT_EQ(path[1].node, 3u) << "the long way round, 0-3-2-1";

    // The replacement is adopted, so a second cut is repaired too.
    EXPECT_TRUE(mgr->adopted(st.replacement));
    ASSERT_TRUE(net->repairLink(0, 1));
    ASSERT_TRUE(net->failLink(2, 3));
    RecoveryStatus chained;
    ASSERT_TRUE(mgr->pollStatus(st.replacement, chained));
    EXPECT_EQ(chained.state, RecoveryState::Recovered);
    EXPECT_EQ(net->connectionPath(chained.replacementHandle).size(), 2u);
    EXPECT_EQ(mgr->connectionsRecovered(), 2u);
}

TEST_F(RecoveryTest, InterfaceSwapsOntoReplacement)
{
    build(Topology::mesh2d(3, 3));
    NetworkInterface host(*net, 0, 99);
    host.attachRecovery(mgr.get());
    ASSERT_TRUE(host.openCbrStream(8, 100 * kMbps));
    const ConnId orig = host.connections().at(0);
    EXPECT_TRUE(mgr->adopted(orig));

    // Warm the stream up, then cut the first hop of its path.
    for (Cycle c = 0; c < 500; ++c) {
        host.tick(kernel.now());
        kernel.step();
    }
    const auto path = net->connectionPath(host.handle(0));
    ASSERT_GE(path.size(), 2u);
    ASSERT_TRUE(net->failLink(path[0].node, path[1].node));

    for (Cycle c = 0; c < 6000; ++c) {
        host.tick(kernel.now());
        kernel.step();
    }

    EXPECT_EQ(host.lostStreams(), 1u);
    EXPECT_EQ(host.reestablishedStreams(), 1u);
    ASSERT_EQ(host.establishedStreams(), 1u);
    const ConnId now_id = host.connections().at(0);
    EXPECT_NE(now_id, orig);
    EXPECT_EQ(net->connectionState(host.handle(0)),
              Network::ConnState::Open);
    EXPECT_GT(host.flitsDroppedInRecovery(), 0u)
        << "arrivals during recovery are dropped with accounting";
    RecoveryStatus st;
    EXPECT_FALSE(mgr->pollStatus(orig, st))
        << "the swap took the final status; nothing is left behind";

    // And the stream actually flows again on the new path.
    const auto delivered_then = net->flitsDelivered();
    for (Cycle c = 0; c < 1000; ++c) {
        host.tick(kernel.now());
        kernel.step();
    }
    EXPECT_GT(net->flitsDelivered(), delivered_then);
}

} // namespace
} // namespace mmr
