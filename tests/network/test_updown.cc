/**
 * @file
 * Tests for up*-down* adaptive routing (§3.5): direction labeling,
 * route legality, reachability and livelock-freedom of the adaptive
 * next-hop choice.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "base/rng.hh"
#include "network/topology.hh"
#include "network/updown.hh"

namespace mmr
{
namespace
{

/** Every legal next hop from @p at toward @p dst, as neighbor nodes,
 * the adaptive pick first. */
std::vector<NodeId>
nextHops(const UpDownRouting &ud, NodeId at, NodeId dst, bool down,
         Rng &rng)
{
    const Topology &t = ud.topology();
    std::vector<PortId> ports(t.degree(at));
    ports.resize(ud.nextHops(at, dst, down, rng, ports));
    std::vector<NodeId> hops;
    for (const PortId p : ports)
        hops.push_back(t.ports(at)[p].neighbor);
    return hops;
}

/** The adaptive pick: kInvalidNode when the packet cannot move. */
NodeId
adaptivePick(const UpDownRouting &ud, NodeId at, NodeId dst, bool down,
             Rng &rng)
{
    const std::vector<NodeId> hops = nextHops(ud, at, dst, down, rng);
    return hops.empty() ? kInvalidNode : hops.front();
}

TEST(UpDown, LevelsComeFromBfs)
{
    const Topology t = Topology::star(4);
    const UpDownRouting ud(t, 0);
    EXPECT_EQ(ud.level(0), 0u);
    for (NodeId n = 1; n <= 4; ++n)
        EXPECT_EQ(ud.level(n), 1u);
}

TEST(UpDown, DirectionIsAntisymmetric)
{
    Rng rng(3);
    const Topology t = Topology::irregular(12, 5, 4, rng);
    const UpDownRouting ud(t);
    for (NodeId n = 0; n < t.numNodes(); ++n) {
        for (const auto &p : t.ports(n)) {
            EXPECT_NE(ud.isUp(n, p.neighbor), ud.isUp(p.neighbor, n))
                << "every link has exactly one up direction";
        }
    }
}

TEST(UpDown, RootIsAboveItsNeighbors)
{
    const Topology t = Topology::mesh2d(3, 3);
    const UpDownRouting ud(t, 4); // center as root
    for (const auto &p : t.ports(4))
        EXPECT_TRUE(ud.isUp(p.neighbor, 4));
}

TEST(UpDown, LegalHopsNeverGoUpAfterDown)
{
    Rng rng(4);
    const Topology t = Topology::irregular(14, 6, 4, rng);
    const UpDownRouting ud(t);
    for (NodeId at = 0; at < t.numNodes(); ++at) {
        for (NodeId dst = 0; dst < t.numNodes(); ++dst) {
            if (at == dst)
                continue;
            for (NodeId hop : nextHops(ud, at, dst, true, rng))
                EXPECT_FALSE(ud.isUp(at, hop))
                    << "up move offered in the down phase";
        }
    }
}

/**
 * The walk's contract: every hop that keeps dst reachable without an
 * up move after a down one, each once, the adaptive pick first and the
 * rest in port order; one rng draw when any hop exists, none when none
 * does.  Some of these pairs have a single legal hop, and a failed
 * link leaves some with none.
 */
TEST(UpDown, NextHopsListEveryLegalHopPickFirst)
{
    Rng rng(8);
    Topology t = Topology::irregular(14, 6, 4, rng);
    const NodeId cut = t.ports(0)[0].neighbor;
    const UpDownRouting ud(t, 0);
    t.setLinkUp(0, cut, false);
    unsigned none = 0, single = 0;
    for (NodeId at = 0; at < t.numNodes(); ++at) {
        for (NodeId dst = 0; dst < t.numNodes(); ++dst) {
            if (at == dst)
                continue;
            for (const bool down : {false, true}) {
                std::vector<NodeId> legal;
                for (const auto &p : t.ports(at)) {
                    const NodeId m = p.neighbor;
                    const bool up = ud.isUp(at, m);
                    const bool dead = (at == 0 && m == cut) ||
                                      (at == cut && m == 0);
                    if (!dead && !(down && up) &&
                        ud.reachable(m, dst, !up))
                        legal.push_back(m);
                }
                Rng before = rng;
                const std::vector<NodeId> hops =
                    nextHops(ud, at, dst, down, rng);
                if (!legal.empty())
                    (void)before.next(); // the one tie-break draw
                EXPECT_EQ(before.next(), Rng(rng).next())
                    << at << " -> " << dst << " draws once iff it moves";
                none += hops.empty();
                single += legal.size() == 1;
                ASSERT_EQ(hops.size(), legal.size());
                if (hops.empty())
                    continue;
                const auto pick =
                    std::find(legal.begin(), legal.end(), hops.front());
                ASSERT_NE(pick, legal.end());
                legal.erase(pick);
                EXPECT_EQ(std::vector<NodeId>(hops.begin() + 1, hops.end()),
                          legal)
                    << "the other hops follow in port order";
            }
        }
    }
    EXPECT_GT(none, 0u);
    EXPECT_GT(single, 0u);
}

TEST(UpDown, EveryPairReachableInPhaseZero)
{
    Rng rng(5);
    const Topology t = Topology::irregular(16, 4, 4, rng);
    const UpDownRouting ud(t);
    for (NodeId a = 0; a < t.numNodes(); ++a)
        for (NodeId b = 0; b < t.numNodes(); ++b)
            EXPECT_TRUE(ud.reachable(a, b, false))
                << a << " -> " << b;
}

TEST(UpDown, TreeTopologyFollowsTreePath)
{
    // On a star, any leaf-to-leaf route goes through the hub in
    // exactly two hops: up then down.
    const Topology t = Topology::star(4);
    const UpDownRouting ud(t, 0);
    Rng rng(6);
    EXPECT_EQ(nextHops(ud, 1, 3, false, rng),
              std::vector<NodeId>{0u});
    EXPECT_EQ(nextHops(ud, 0, 3, false, rng),
              std::vector<NodeId>{3u});
}

/**
 * Livelock freedom: following the adaptive pick step by step always
 * reaches the destination within 2 x diameter-ish hops, on random
 * irregular graphs, from every source, in both phases.
 */
class UpDownWalkProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(UpDownWalkProperty, AdaptiveWalksTerminate)
{
    Rng rng(GetParam());
    const Topology t = Topology::irregular(18, 8, 5, rng);
    const UpDownRouting ud(t);
    Rng walk_rng(GetParam() * 31 + 1);
    for (NodeId src = 0; src < t.numNodes(); ++src) {
        for (NodeId dst = 0; dst < t.numNodes(); ++dst) {
            if (src == dst)
                continue;
            NodeId at = src;
            bool down = false;
            unsigned hops = 0;
            const unsigned bound = 4 * t.numNodes();
            while (at != dst) {
                const NodeId next =
                    adaptivePick(ud, at, dst, down, walk_rng);
                ASSERT_NE(next, kInvalidNode)
                    << "stuck at " << at << " for " << dst;
                down = down || !ud.isUp(at, next);
                at = next;
                ASSERT_LE(++hops, bound) << "livelock " << src << "->"
                                         << dst;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpDownWalkProperty,
                         ::testing::Values(10, 20, 30, 40, 50));

TEST(UpDown, MeshRoutesAreNearMinimal)
{
    // On a mesh rooted at a corner, adaptive up*-down* paths are within
    // 2x the Manhattan distance (up*-down* can detour via the root
    // region but the phase-automaton distance bounds the walk).
    const Topology t = Topology::mesh2d(4, 4);
    const UpDownRouting ud(t, 0);
    Rng rng(7);
    for (NodeId src = 0; src < 16; ++src) {
        for (NodeId dst = 0; dst < 16; ++dst) {
            if (src == dst)
                continue;
            NodeId at = src;
            bool down = false;
            unsigned hops = 0;
            while (at != dst && hops < 64) {
                const NodeId next = adaptivePick(ud, at, dst, down, rng);
                ASSERT_NE(next, kInvalidNode);
                down = down || !ud.isUp(at, next);
                at = next;
                ++hops;
            }
            EXPECT_LE(hops, 2 * t.distance(src, dst) + 2);
        }
    }
}

} // namespace
} // namespace mmr
