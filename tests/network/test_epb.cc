/**
 * @file
 * Tests for connection establishment with Exhaustive Profitable
 * Backtracking (§3.5, §4.2): reservation correctness, backtracking
 * around saturated links, full-rollback on rejection, and the greedy
 * baseline's weaker acceptance.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "network/epb.hh"
#include "network/probe_protocol.hh"
#include "network/topology.hh"

namespace mmr
{
namespace
{

/** What one zero-time setup returned. */
struct SetupResult
{
    bool accepted = false;
    std::vector<ReservedHop> hops;
    unsigned forwardSteps = 0;
    unsigned backtrackSteps = 0;
};

/** A bank of routers shaped for a topology, with the probe manager
 * that drives zero-time setups over it. */
class EpbTest : public ::testing::Test
{
  protected:
    void
    build(const Topology &t)
    {
        topo = std::make_unique<Topology>(t);
        routers.clear();
        for (NodeId n = 0; n < t.numNodes(); ++n) {
            RouterConfig rc;
            rc.numPorts = t.degree(n) + 1;
            rc.vcsPerPort = 8;
            rc.candidates = 2;
            rc.seed = n + 1;
            routers.push_back(std::make_unique<MmrRouter>(rc));
        }
        probes = std::make_unique<ProbeSetupManager>(
            *topo, [this](NodeId n) -> MmrRouter & { return *routers[n]; },
            [](TimedSetup &) {}, /*seed=*/1);
    }

    SetupResult
    establish(const SetupRequest &req, SetupPolicy policy,
              std::uint64_t seed)
    {
        Rng rng(seed);
        PathSearch search;
        SetupResult sr;
        sr.accepted = probes->establish(req, policy, rng, search);
        sr.hops = search.hops;
        sr.forwardSteps = search.forwardSteps;
        sr.backtrackSteps = search.backtrackSteps;
        return sr;
    }

    SetupResult
    establish(NodeId src, NodeId dst, unsigned cycles,
              SetupPolicy policy = SetupPolicy::Epb,
              std::uint64_t seed = 1)
    {
        SetupRequest req;
        req.src = src;
        req.dst = dst;
        req.klass = TrafficClass::CBR;
        req.allocCycles = cycles;
        return establish(req, policy, seed);
    }

    void
    releaseAll(const SetupResult &sr, unsigned cycles)
    {
        for (const ReservedHop &hop : sr.hops) {
            routers[hop.node]->routing().freeOutputVc(hop.out, hop.outVc);
            routers[hop.node]->admission().releaseCbr(hop.out, cycles);
        }
    }

    unsigned
    totalAllocated() const
    {
        unsigned total = 0;
        for (NodeId n = 0; n < topo->numNodes(); ++n)
            for (PortId p = 0; p < topo->degree(n) + 1; ++p)
                total += routers[n]->admission().allocatedCycles(p);
        return total;
    }

    std::unique_ptr<Topology> topo;
    std::vector<std::unique_ptr<MmrRouter>> routers;
    std::unique_ptr<ProbeSetupManager> probes;
};

TEST_F(EpbTest, FindsThePathOnALine)
{
    Topology line(3);
    line.addLink(0, 1);
    line.addLink(1, 2);
    build(line);

    const SetupResult sr = establish(0, 2, 10);
    ASSERT_TRUE(sr.accepted);
    // Hops: router 0 -> link to 1, router 1 -> link to 2, router 2 ->
    // NI port.
    ASSERT_EQ(sr.hops.size(), 3u);
    EXPECT_EQ(sr.hops[0].node, 0u);
    EXPECT_EQ(sr.hops[1].node, 1u);
    EXPECT_EQ(sr.hops[2].node, 2u);
    EXPECT_EQ(sr.hops[2].out, topo->degree(2));
    EXPECT_EQ(sr.forwardSteps, 2u);
    EXPECT_EQ(sr.backtrackSteps, 0u);
    // Bandwidth charged on every hop.
    EXPECT_EQ(totalAllocated(), 30u);
}

TEST_F(EpbTest, ProbesStayOnMinimalPaths)
{
    const Topology mesh = Topology::mesh2d(3, 3);
    build(mesh);
    const SetupResult sr = establish(0, 8, 5);
    ASSERT_TRUE(sr.accepted);
    // Minimal path 0 -> 8 has 4 links, plus the destination NI hop.
    EXPECT_EQ(sr.hops.size(), mesh.distance(0, 8) + 1);
}

TEST_F(EpbTest, BacktracksAroundASaturatedLink)
{
    // Diamond: 0 - {1, 2} - 3.  Saturate 1->3; EPB must settle on the
    // 0-2-3 detour after backtracking, greedy may fail if it tries
    // the saturated branch first.
    Topology diamond(4);
    diamond.addLink(0, 1);
    diamond.addLink(0, 2);
    diamond.addLink(1, 3);
    diamond.addLink(2, 3);
    build(diamond);

    // Saturate the 1 -> 3 link completely.
    const PortId p13 = diamond.portTowards(1, 3);
    const unsigned round = routers[1]->config().cyclesPerRound();
    ASSERT_TRUE(routers[1]->admission().tryAdmitCbr(p13, round));

    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const SetupResult sr = establish(0, 3, 4, SetupPolicy::Epb, seed);
        ASSERT_TRUE(sr.accepted) << "EPB must find the detour";
        // Path must go through node 2.
        bool via2 = false;
        for (const ReservedHop &h : sr.hops)
            via2 |= (h.node == 2);
        EXPECT_TRUE(via2);
        releaseAll(sr, 4);
    }
}

TEST_F(EpbTest, GreedyFailsWhereEpbSucceeds)
{
    Topology diamond(4);
    diamond.addLink(0, 1);
    diamond.addLink(0, 2);
    diamond.addLink(1, 3);
    diamond.addLink(2, 3);
    build(diamond);
    const PortId p13 = diamond.portTowards(1, 3);
    const unsigned round = routers[1]->config().cyclesPerRound();
    ASSERT_TRUE(routers[1]->admission().tryAdmitCbr(p13, round));

    unsigned greedy_fail = 0, epb_fail = 0;
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        const SetupResult g =
            establish(0, 3, 4, SetupPolicy::Greedy, seed);
        if (!g.accepted)
            ++greedy_fail;
        else
            releaseAll(g, 4);
        const SetupResult e = establish(0, 3, 4, SetupPolicy::Epb, seed);
        if (!e.accepted)
            ++epb_fail;
        else
            releaseAll(e, 4);
    }
    EXPECT_EQ(epb_fail, 0u);
    EXPECT_GT(greedy_fail, 0u)
        << "greedy dead-ends when it picks the saturated branch";
}

TEST_F(EpbTest, RejectionRollsBackEveryReservation)
{
    Topology line(3);
    line.addLink(0, 1);
    line.addLink(1, 2);
    build(line);
    // Saturate the last link 1 -> 2: no path can exist.
    const PortId p12 = line.portTowards(1, 2);
    const unsigned round = routers[1]->config().cyclesPerRound();
    ASSERT_TRUE(routers[1]->admission().tryAdmitCbr(p12, round));
    const unsigned baseline = totalAllocated();

    const SetupResult sr = establish(0, 2, 4);
    EXPECT_FALSE(sr.accepted);
    EXPECT_TRUE(sr.hops.empty());
    EXPECT_GT(sr.backtrackSteps, 0u);
    EXPECT_EQ(totalAllocated(), baseline)
        << "failed setup must release everything it reserved";
    // And all VCs are free again.
    for (NodeId n = 0; n < 3; ++n)
        for (PortId p = 0; p < line.degree(n) + 1; ++p)
            EXPECT_EQ(routers[n]->routing().freeOutputVcCount(p), 8u);
}

TEST_F(EpbTest, VcExhaustionBlocksTheLink)
{
    Topology line(2);
    line.addLink(0, 1);
    build(line);
    // Eat all 8 output VCs on 0 -> 1.
    const PortId p01 = line.portTowards(0, 1);
    for (int i = 0; i < 8; ++i)
        ASSERT_NE(routers[0]->routing().allocOutputVc(p01), kInvalidVc);
    const SetupResult sr = establish(0, 1, 1);
    EXPECT_FALSE(sr.accepted)
        << "bandwidth alone is not enough: a VC must be free too";
}

TEST_F(EpbTest, VbrReservationsUseBothRegisters)
{
    Topology line(2);
    line.addLink(0, 1);
    build(line);
    SetupRequest req;
    req.src = 0;
    req.dst = 1;
    req.klass = TrafficClass::VBR;
    // Round is K x V = 16 cycles here; peak must fit within round x
    // concurrency factor (16 x 2 = 32).
    req.permCycles = 10;
    req.peakCycles = 20;
    const SetupResult sr = establish(req, SetupPolicy::Epb, 2);
    ASSERT_TRUE(sr.accepted);
    const PortId p01 = topo->portTowards(0, 1);
    EXPECT_EQ(routers[0]->admission().allocatedCycles(p01), 10u);
    EXPECT_EQ(routers[0]->admission().peakCycles(p01), 20u);
}

TEST_F(EpbTest, ManyConnectionsUntilSaturation)
{
    // Keep opening 1-cycle connections across a line until the
    // network refuses; the refusal point must match link capacity.
    Topology line(3);
    line.addLink(0, 1);
    line.addLink(1, 2);
    build(line);
    const unsigned round = routers[0]->config().cyclesPerRound();
    const unsigned vcs = 8;

    unsigned accepted = 0;
    for (unsigned i = 0; i < round + vcs; ++i) {
        const SetupResult sr =
            establish(0, 2, 1, SetupPolicy::Epb, i + 1);
        if (!sr.accepted)
            break;
        ++accepted;
    }
    // The 8-VC limit binds first (round is much larger than 8).
    EXPECT_EQ(accepted, vcs);
}

} // namespace
} // namespace mmr
