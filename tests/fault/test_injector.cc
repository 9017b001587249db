/**
 * @file
 * FaultInjector tests: scheduled events fire on their cycle through a
 * kernel-driven run; flit corruption is discarded downstream with all
 * credits/VCs returned (nothing wedges); probe-message loss leads to
 * a clean setup timeout with every hop reservation released.
 */

#include <gtest/gtest.h>

#include <memory>

#include "fault/injector.hh"
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

class InjectorTest : public ::testing::Test
{
  protected:
    /** Injector evaluates before the network, as in the harness. */
    void
    build(const Topology &t, FaultPlan plan, std::uint64_t seed = 5)
    {
        net = std::make_unique<Network>(t, netCfg());
        injector =
            std::make_unique<FaultInjector>(*net, std::move(plan), seed);
        kernel.add(injector.get(), "fault-injector");
        kernel.add(net.get(), "network");
    }

    std::unique_ptr<Network> net;
    std::unique_ptr<FaultInjector> injector;
    Kernel kernel;
};

TEST_F(InjectorTest, AppliesEventsOnSchedule)
{
    const Topology t = Topology::ring(4);
    build(t, FaultPlan::fromEvents("down@10:0-1;up@20:0-1", t));

    kernel.run(10); // cycles 0..9
    EXPECT_TRUE(net->topology().linkUp(0, 1)) << "event must not fire early";
    EXPECT_EQ(injector->linkDownsApplied(), 0u);

    kernel.run(1); // cycle 10
    EXPECT_FALSE(net->topology().linkUp(0, 1));
    EXPECT_EQ(injector->linkDownsApplied(), 1u);
    EXPECT_FALSE(injector->done());

    kernel.run(10); // through cycle 20
    EXPECT_TRUE(net->topology().linkUp(0, 1));
    EXPECT_EQ(injector->linkUpsApplied(), 1u);
    EXPECT_TRUE(injector->done());
    EXPECT_EQ(injector->eventsSkipped(), 0u);
}

TEST_F(InjectorTest, RedundantEventsAreCountedSkipped)
{
    const Topology t = Topology::ring(4);
    // The second down and the first up target a link already in that
    // state; Network refuses them and the injector counts the skips.
    build(t, FaultPlan::fromEvents("down@5:0-1;down@6:0-1;up@7:2-3", t));
    kernel.run(10);
    EXPECT_EQ(injector->linkDownsApplied(), 1u);
    EXPECT_EQ(injector->linkUpsApplied(), 0u);
    EXPECT_EQ(injector->eventsSkipped(), 2u);
}

TEST_F(InjectorTest, CorruptedFlitsAreDiscardedWithoutWedging)
{
    const Topology t = Topology::ring(4);
    FaultPlan plan; // no events; corruption only
    FaultModel m;
    m.corruptRate = 1.0; // every inter-router flit dies on the wire
    plan.setModel(m);
    build(t, std::move(plan));

    const auto o = net->openCbr(0, 1, 100 * kMbps);
    ASSERT_TRUE(o.accepted);

    // Inject a stream of flits; with a 100% corruption rate none may
    // arrive, but the upstream credits must keep coming back or
    // injection would wedge after the VC depth.
    unsigned accepted = 0;
    for (Cycle c = 0; c < 1600; ++c) {
        if (c % 16 == 0) {
            Flit f;
            f.conn = o.id;
            f.createTime = kernel.now();
            if (net->inject(o.handle, f, kernel.now()))
                ++accepted;
        }
        kernel.step();
    }
    EXPECT_GE(accepted, 90u) << "credit return must sustain injection";
    EXPECT_GT(injector->flitsCorrupted(), 0u);
    EXPECT_EQ(net->flitsCorrupted(), injector->flitsCorrupted())
        << "every corruption marked at egress is discarded at arrival";
    EXPECT_EQ(net->flitsDelivered(), 0u);
}

TEST_F(InjectorTest, CorruptedDatagramsReleaseTheirLinkVc)
{
    const Topology t = Topology::ring(4);
    FaultPlan plan;
    FaultModel m;
    m.corruptRate = 1.0;
    plan.setModel(m);
    build(t, std::move(plan));

    for (unsigned i = 0; i < 50; ++i)
        net->sendDatagram(0, 2, TrafficClass::BestEffort, 0x9000,
                          kernel.now(), i);
    kernel.run(600);

    EXPECT_EQ(net->datagramsDelivered(), 0u);
    EXPECT_GT(net->datagramsLost(), 0u)
        << "corrupt datagrams count as lost";
    EXPECT_EQ(net->pendingDatagrams(), 0u)
        << "nothing may stay parked on a released VC";

    // The per-hop VCs the dead datagrams held must all be free again.
    const Topology &topo = net->topology();
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        auto &r = net->routerAt(n);
        for (const auto &pi : topo.ports(n))
            EXPECT_EQ(r.routing().freeOutputVcCount(pi.localPort), 16u)
                << "node " << n << " port " << pi.localPort;
    }
}

TEST_F(InjectorTest, LostProbesTimeOutAndReleaseReservations)
{
    const Topology t = Topology::ring(4);
    FaultPlan plan;
    FaultModel m;
    m.probeDropRate = 1.0; // every setup message is lost
    plan.setModel(m);
    build(t, std::move(plan));

    // The injector installs its fall-back source timeout when nobody
    // configured one — a lost probe's reservations must be
    // reclaimable.
    ASSERT_EQ(net->probes().setupTimeout(),
              FaultInjector::kDefaultSetupTimeout);

    const auto token = net->openCbrTimed(0, 2, 10 * kMbps, kernel.now());
    kernel.run(FaultInjector::kDefaultSetupTimeout + 16);

    Network::SetupOutcome r;
    ASSERT_TRUE(net->takeTimedResult(token, r))
        << "timeout must complete the setup attempt";
    EXPECT_FALSE(r.accepted);
    EXPECT_GT(injector->probeMessagesDropped(), 0u);
    EXPECT_GE(net->probes().messagesLost(), 1u);
    EXPECT_GE(net->probes().setupTimeouts(), 1u);
    EXPECT_EQ(net->pendingSetups(), 0u);

    // Clean failure: no bandwidth and no VCs may stay reserved
    // anywhere.
    const Topology &topo = net->topology();
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        auto &r_n = net->routerAt(n);
        for (const auto &pi : topo.ports(n)) {
            EXPECT_EQ(r_n.admission().allocatedCycles(pi.localPort), 0u)
                << "node " << n << " port " << pi.localPort;
            EXPECT_EQ(r_n.routing().freeOutputVcCount(pi.localPort),
                      16u)
                << "node " << n << " port " << pi.localPort;
        }
    }
}

TEST_F(InjectorTest, HookRemovalOnDestruction)
{
    const Topology t = Topology::ring(4);
    FaultPlan plan;
    FaultModel m;
    m.corruptRate = 1.0;
    plan.setModel(m);

    net = std::make_unique<Network>(t, netCfg());
    {
        FaultInjector inj(*net, std::move(plan), 5);
    } // destroyed: the corrupt hook must be gone

    kernel.add(net.get());
    const auto o = net->openCbr(0, 1, 10 * kMbps);
    ASSERT_TRUE(o.accepted);
    Flit f;
    f.conn = o.id;
    ASSERT_TRUE(net->inject(o.handle, f, kernel.now()));
    kernel.run(50);
    EXPECT_EQ(net->flitsCorrupted(), 0u);
    EXPECT_EQ(net->flitsDelivered(), 1u);
}

} // namespace
} // namespace mmr
