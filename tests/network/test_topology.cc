/**
 * @file
 * Unit and property tests for the topology builders and graph
 * queries, and for the spec strings that select them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "base/rng.hh"
#include "harness/network_experiment.hh"
#include "network/topology.hh"

namespace mmr
{
namespace
{

TEST(Topology, Mesh2dStructure)
{
    const Topology t = Topology::mesh2d(3, 2);
    EXPECT_EQ(t.numNodes(), 6u);
    EXPECT_EQ(t.numLinks(), 7u); // 2*2 horizontal + 3 vertical
    EXPECT_TRUE(t.connected());
    // Corner degree 2, edge degree 3.
    EXPECT_EQ(t.degree(0), 2u);
    EXPECT_EQ(t.degree(1), 3u);
    EXPECT_EQ(t.maxDegree(), 3u);
}

TEST(Topology, Mesh2dDistancesAreManhattan)
{
    const Topology t = Topology::mesh2d(4, 4);
    auto id = [](unsigned x, unsigned y) { return y * 4 + x; };
    EXPECT_EQ(t.distance(id(0, 0), id(3, 3)), 6u);
    EXPECT_EQ(t.distance(id(1, 2), id(2, 0)), 3u);
    EXPECT_EQ(t.distance(id(2, 2), id(2, 2)), 0u);
}

TEST(Topology, Torus2dWrapsAround)
{
    const Topology t = Topology::torus2d(4, 4);
    EXPECT_EQ(t.numNodes(), 16u);
    EXPECT_EQ(t.numLinks(), 32u);
    for (NodeId n = 0; n < 16; ++n)
        EXPECT_EQ(t.degree(n), 4u);
    // Opposite corners are 2 hops away thanks to the wrap links.
    EXPECT_EQ(t.distance(0, 15), 2u);
}

TEST(Topology, RingAndStar)
{
    const Topology ring = Topology::ring(6);
    EXPECT_EQ(ring.numLinks(), 6u);
    EXPECT_EQ(ring.distance(0, 3), 3u);
    EXPECT_EQ(ring.distance(0, 5), 1u);

    const Topology star = Topology::star(5);
    EXPECT_EQ(star.numNodes(), 6u);
    EXPECT_EQ(star.degree(0), 5u);
    EXPECT_EQ(star.distance(1, 5), 2u);
}

TEST(Topology, PortWiringIsConsistent)
{
    const Topology t = Topology::mesh2d(3, 3);
    for (NodeId n = 0; n < t.numNodes(); ++n) {
        for (const auto &p : t.ports(n)) {
            EXPECT_EQ(t.neighborAt(n, p.localPort), p.neighbor);
            // The remote side points back through remotePort.
            const auto &back = t.ports(p.neighbor)[p.remotePort];
            EXPECT_EQ(back.neighbor, n);
            EXPECT_EQ(back.remotePort, p.localPort);
            EXPECT_EQ(t.portTowards(n, p.neighbor), p.localPort);
        }
    }
    EXPECT_EQ(t.portTowards(0, 8), kInvalidPort) << "not adjacent";
}

TEST(Topology, DuplicateAndSelfLinksAreFatal)
{
    Topology t(3);
    t.addLink(0, 1);
    EXPECT_THROW(t.addLink(1, 0), std::runtime_error);
    EXPECT_THROW(t.addLink(2, 2), std::runtime_error);
}

class IrregularTopologyProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(IrregularTopologyProperty, ConnectedAndDegreeBounded)
{
    Rng rng(GetParam());
    const unsigned n = 16;
    const unsigned max_degree = 4;
    const Topology t = Topology::irregular(n, 6, max_degree, rng);
    EXPECT_EQ(t.numNodes(), n);
    EXPECT_TRUE(t.connected());
    EXPECT_GE(t.numLinks(), n - 1) << "at least a spanning tree";
    for (NodeId i = 0; i < n; ++i)
        EXPECT_LE(t.degree(i), max_degree);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrregularTopologyProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Topology, MultistageButterflyShape)
{
    // 2-ary 3-stage butterfly: 4 switches per stage, 12 nodes.
    const Topology t = Topology::multistage(2, 3);
    EXPECT_EQ(t.numNodes(), 12u);
    EXPECT_TRUE(t.connected());
    // End stages have radix links, middle stages 2*radix.
    for (NodeId n = 0; n < 4; ++n) {
        EXPECT_EQ(t.degree(n), 2u) << "stage 0 node " << n;
        EXPECT_EQ(t.degree(8 + n), 2u) << "stage 2 node " << n;
        EXPECT_EQ(t.degree(4 + n), 4u) << "stage 1 node " << n;
    }
    // Stage 0 switch 0 varies the most significant digit: reaches
    // stage-1 switches 0 and 2.
    EXPECT_TRUE(t.hasLink(0, 4));
    EXPECT_TRUE(t.hasLink(0, 6));
    EXPECT_FALSE(t.hasLink(0, 5));
    // No links within a stage or skipping a stage.
    EXPECT_FALSE(t.hasLink(0, 1));
    EXPECT_FALSE(t.hasLink(0, 8));
}

TEST(Topology, MultistageScalesToThousandsOfRouters)
{
    // radix 4, 6 stages: 4^5 = 1024 switches per stage, 6144 total —
    // the >=1024-router regime of the scaling bench.
    const Topology t = Topology::multistage(4, 6);
    EXPECT_EQ(t.numNodes(), 6u * 1024u);
    EXPECT_EQ(t.degree(0), 4u);
    EXPECT_EQ(t.degree(1024), 8u);
    EXPECT_TRUE(t.connected());
}

TEST(Topology, FatTreeShape)
{
    // k=4: 4 cores, 4 pods x (2 agg + 2 edge) = 20 nodes.
    const Topology t = Topology::fatTree(4);
    EXPECT_EQ(t.numNodes(), 20u);
    EXPECT_TRUE(t.connected());
    for (NodeId c = 0; c < 4; ++c)
        EXPECT_EQ(t.degree(c), 4u) << "core " << c << " links to "
                                      "one agg per pod";
    for (unsigned pod = 0; pod < 4; ++pod) {
        for (unsigned j = 0; j < 2; ++j) {
            EXPECT_EQ(t.degree(4 + pod * 4 + j), 4u)
                << "agg " << j << " of pod " << pod;
            EXPECT_EQ(t.degree(4 + pod * 4 + 2 + j), 2u)
                << "edge " << j << " of pod " << pod;
        }
    }
    // Aggregation switch 0 of pod 0 uplinks to cores 0 and 1 only.
    EXPECT_TRUE(t.hasLink(4, 0));
    EXPECT_TRUE(t.hasLink(4, 1));
    EXPECT_FALSE(t.hasLink(4, 2));
}

TEST(Topology, LeafSpineShape)
{
    const Topology t = Topology::leafSpine(3, 6);
    EXPECT_EQ(t.numNodes(), 9u);
    EXPECT_TRUE(t.connected());
    for (NodeId s = 0; s < 3; ++s)
        EXPECT_EQ(t.degree(s), 6u) << "spine " << s;
    for (NodeId l = 3; l < 9; ++l)
        EXPECT_EQ(t.degree(l), 3u) << "leaf " << l;
    EXPECT_FALSE(t.hasLink(0, 1)) << "no spine-spine links";
    EXPECT_FALSE(t.hasLink(3, 4)) << "no leaf-leaf links";
}

/**
 * Build @p spec the way a bench or example main() does: a fatal error
 * is printed and exits 1 when it names the spec (2 when it does not),
 * a built topology exits 0, and a panic aborts.
 */
[[noreturn]] void
buildAsMain(const std::string &spec)
{
    try {
        topologyFromSpec(spec, 1);
    } catch (const std::exception &e) {
        const std::string msg = e.what();
        std::fprintf(stderr, "%s\n", msg.c_str());
        const bool names_spec = msg.find("'" + spec + "'") != msg.npos;
        std::exit(names_spec ? 1 : 2);
    }
    std::exit(0);
}

TEST(TopologySpec, OutOfBoundSpecsAreUserErrors)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *spec : {
             // generator bounds
             "ring:2", "torus:2x2", "torus:3x2", "min:1:4", "min:2:1",
             "fattree:3", "fattree:2", "irregular:1:1:4",
             "irregular:8:1:1",
             // a sign, blanks, junk, nothing, or a number above UINT_MAX
             "mesh:-1x4", "mesh:4x-1", "ring:+5", "ring: 5", "fattree:6x",
             "mesh:4x", "ring:4294967296", "ring:18446744073709551617",
             // sizes whose node count overflows the node ids
             "mesh:65536x65536", "torus:65536x65537", "star:4294967295",
             "min:2:26", "min:16777216:3", "fattree:65536",
             "leafspine:4294967295:1"}) {
        SCOPED_TRACE(spec);
        EXPECT_EXIT(buildAsMain(spec), testing::ExitedWithCode(1),
                    "fatal: ");
    }
}

TEST(TopologySpec, SpecsAtTheBoundsBuild)
{
    EXPECT_EQ(topologyFromSpec("ring:3", 1).numNodes(), 3u);
    EXPECT_EQ(topologyFromSpec("torus:3x3", 1).numNodes(), 9u);
    EXPECT_EQ(topologyFromSpec("mesh:1x1", 1).numNodes(), 1u);
    EXPECT_EQ(topologyFromSpec("star:1", 1).numNodes(), 2u);
    EXPECT_EQ(topologyFromSpec("min:2:2", 1).numNodes(), 4u);
    EXPECT_EQ(topologyFromSpec("fattree:4", 1).numNodes(), 20u);
    EXPECT_EQ(topologyFromSpec("leafspine:1:1", 1).numNodes(), 2u);
    EXPECT_EQ(topologyFromSpec("irregular:2:1:2", 1).numNodes(), 2u);
}

} // namespace
} // namespace mmr
