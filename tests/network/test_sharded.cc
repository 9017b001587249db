/**
 * @file
 * Serial-vs-sharded equivalence: the shard-parallel network core must
 * produce a bit-identical networkResultDigest to the serial path for
 * every topology generator, shard count, and fault schedule — the
 * determinism contract of DESIGN.md §12.  The digests cover every
 * counter, FP accumulation, and latency-histogram percentile of the
 * run, so any reordering of credit returns, corrupt-hook RNG draws or
 * end-to-end deliveries across the shard boundary shows up here.
 *
 * The fault sweep's seed count scales with MMR_SHARD_PROP_SEEDS
 * (default 20, the ISSUE-mandated sweep width).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "harness/network_experiment.hh"
#include "network/network.hh"
#include "sim/invariant.hh"
#include "sim/kernel.hh"

namespace mmr
{
namespace
{

unsigned
seedCount()
{
    if (const char *env = std::getenv("MMR_SHARD_PROP_SEEDS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    return 20;
}

/** The four generator families the digest contract is tested over. */
const char *const kGenerators[] = {
    "mesh:3x3",          // regular
    "irregular:10:4:4",  // random bounded-degree cluster
    "min:2:3",           // multistage interconnection network
    "fattree:4",         // three-tier fat-tree
};

const unsigned kShardCounts[] = {2, 3, 8};

NetworkExperimentConfig
baseConfig(const char *topo, std::uint64_t seed)
{
    NetworkExperimentConfig c;
    c.topologySpec = topo;
    c.seed = seed;
    c.net.router.vcsPerPort = 32;
    c.net.router.candidates = 8;
    c.cbrStreamsPerHost = 1;
    c.cbrRateBps = 10 * kMbps;
    c.beFlowsPerHost = 1;
    c.beRateBps = 2 * kMbps;
    c.warmupCycles = 800;
    c.measureCycles = 2000;
    c.drainCycles = 1000;
    c.invariantPeriod = 8;
    return c;
}

std::uint64_t
digestAtShards(NetworkExperimentConfig cfg, unsigned shards)
{
    cfg.net.shards = shards;
    return networkResultDigest(runNetworkExperiment(cfg));
}

class InvariantGuard
{
  public:
    InvariantGuard() { invariant::setEnabled(true); }
    ~InvariantGuard() { invariant::clearOverride(); }
};

TEST(ShardedNetwork, CleanRunDigestMatchesSerialOnEveryGenerator)
{
    InvariantGuard guard;
    for (const char *topo : kGenerators) {
        SCOPED_TRACE(topo);
        const auto cfg = baseConfig(topo, 12345);
        const std::uint64_t serial = digestAtShards(cfg, 1);
        for (unsigned shards : kShardCounts) {
            SCOPED_TRACE("shards " + std::to_string(shards));
            EXPECT_EQ(serial, digestAtShards(cfg, shards))
                << "sharded run diverged from the serial digest";
        }
    }
}

TEST(ShardedNetwork, LeafSpineAndShardsBeyondNodesStaySerialEquivalent)
{
    InvariantGuard guard;
    // leaf-spine exercises the star-like extreme (every leaf's
    // traffic crosses a shard boundary), and shards > nodes exercises
    // the clamp.
    const auto cfg = baseConfig("leafspine:3:6", 777);
    const std::uint64_t serial = digestAtShards(cfg, 1);
    EXPECT_EQ(serial, digestAtShards(cfg, 4));
    EXPECT_EQ(serial, digestAtShards(cfg, 64));
}

TEST(ShardedNetwork, FaultSweepDigestMatchesSerial)
{
    InvariantGuard guard;
    const unsigned seeds = seedCount();
    for (unsigned s = 0; s < seeds; ++s) {
        SCOPED_TRACE("seed index " + std::to_string(s));
        auto cfg = baseConfig(kGenerators[s % 4],
                              42 + 7919ULL * (s + 1));
        cfg.faults.linkFailPer10k = 1.0;
        cfg.faults.meanRepairCycles = 1500;
        cfg.faults.probeDropRate = 0.02;
        cfg.faults.corruptRate = 2e-4;
        const unsigned shards = kShardCounts[s % 3];
        SCOPED_TRACE("shards " + std::to_string(shards));
        EXPECT_EQ(digestAtShards(cfg, 1), digestAtShards(cfg, shards))
            << "FaultPlan replay diverged between serial and sharded";
    }
}

TEST(ShardedNetwork, ExplicitFaultEventsReplayIdentically)
{
    InvariantGuard guard;
    auto cfg = baseConfig("mesh:3x3", 999);
    cfg.faultEvents = "down@900:0-1;up@1800:0-1;down@2200:4-5";
    const std::uint64_t serial = digestAtShards(cfg, 1);
    for (unsigned shards : kShardCounts)
        EXPECT_EQ(serial, digestAtShards(cfg, shards));
}

/**
 * Large multistage networks with a lean per-router footprint (8 VCs, 4
 * candidates, one 10 Mb/s CBR stream per host, 200 + 600 + 100
 * cycles): the 256-router MIN at 2 and 4 shards and the 1280-router
 * MIN at 2, 4 and 8 shards match their serial digests.
 */
TEST(ShardedNetwork, LargeMinDigestsMatchSerial)
{
    InvariantGuard guard;
    struct Case
    {
        const char *topo;
        unsigned routers;
        std::vector<unsigned> shards;
    };
    const Case cases[] = {{"min:4:4", 256, {2, 4}},
                          {"min:4:5", 1280, {2, 4, 8}}};
    for (const Case &c : cases) {
        SCOPED_TRACE(c.topo);
        NetworkExperimentConfig cfg;
        cfg.topologySpec = c.topo;
        cfg.seed = 42;
        cfg.net.router.vcsPerPort = 8;
        cfg.net.router.candidates = 4;
        cfg.cbrStreamsPerHost = 1;
        cfg.cbrRateBps = 10 * kMbps;
        cfg.beFlowsPerHost = 0;
        cfg.warmupCycles = 200;
        cfg.measureCycles = 600;
        cfg.drainCycles = 100;
        const auto serial = runNetworkExperiment(cfg);
        ASSERT_EQ(serial.nodes, c.routers);
        ASSERT_GT(serial.streamsAccepted, 0u);
        const std::uint64_t want = networkResultDigest(serial);
        for (const unsigned shards : c.shards) {
            SCOPED_TRACE("shards " + std::to_string(shards));
            EXPECT_EQ(want, digestAtShards(cfg, shards))
                << "sharded run diverged from the serial digest";
        }
    }
}

TEST(ShardedNetwork, ShardPartitionIsStridedAndBalanced)
{
    // Router n runs on shard n mod S, so every shard is within one
    // router of N/S.
    NetworkConfig ncfg;
    ncfg.shards = 3;
    Network net(Topology::mesh2d(4, 4), ncfg);
    ASSERT_EQ(net.shards(), 3u);
    std::vector<unsigned> sizes(3, 0);
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        EXPECT_EQ(net.shardOfNode(n), n % 3);
        ++sizes[net.shardOfNode(n)];
    }
    for (unsigned s = 0; s < 3; ++s)
        EXPECT_NEAR(static_cast<double>(sizes[s]), 16.0 / 3.0, 1.0);

    // A MIN numbers its routers stage x width + position; dealt
    // round-robin, each stage splits evenly: on min:4:3 at 4 shards
    // every shard holds 4 of each stage's 16 routers.
    ncfg.shards = 4;
    Network min(Topology::multistage(4, 3), ncfg);
    ASSERT_EQ(min.numNodes(), 48u);
    const unsigned width = 16;
    std::vector<std::vector<unsigned>> perStage(
        4, std::vector<unsigned>(3, 0));
    for (NodeId n = 0; n < min.numNodes(); ++n)
        ++perStage[min.shardOfNode(n)][n / width];
    for (unsigned s = 0; s < 4; ++s)
        for (unsigned stage = 0; stage < 3; ++stage)
            EXPECT_EQ(perStage[s][stage], 4u)
                << "shard " << s << " stage " << stage;
}

/**
 * A teardown asked for while the connection's last flit is on a link,
 * due next cycle: in that cycle the flit has left the link queue but
 * waits in its router's shard arrival list until the evaluate phase,
 * after the closes ran.  The close must count it as in flight, or the
 * path is unbound under it and the deposit panics.
 */
TEST(ShardedNetwork, CloseRacingALandingFlitWaitsForIt)
{
    for (const unsigned shards : {1u, 4u}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        NetworkConfig ncfg;
        ncfg.shards = shards;
        Network net(Topology::mesh2d(4, 1), ncfg);
        Kernel kernel;
        kernel.add(&net, "network");

        const auto open = net.openCbr(0, 3, 10 * kMbps);
        ASSERT_TRUE(open.accepted);
        const Network::Handle h = open.handle;
        const std::vector<Network::PathHop> path = net.connectionPath(h);
        ASSERT_EQ(path.size(), 4u);
        const auto buffered = [&](std::size_t k) {
            const Network::PathHop &hop = path[k];
            return !net.routerAt(hop.node)
                        .inputMemory(hop.in.port)
                        .vc(hop.in.vc)
                        .empty();
        };

        Flit f;
        f.createTime = kernel.now();
        ASSERT_TRUE(net.inject(h, f, kernel.now()));
        // Step until the flit leaves the second-to-last router: it is
        // then on the link into the last one, due next cycle.
        bool held = false;
        for (int t = 0; t < 2000; ++t) {
            kernel.step();
            if (buffered(2))
                held = true;
            else if (held)
                break;
        }
        ASSERT_TRUE(held) << "the flit never reached the third router";
        ASSERT_FALSE(buffered(2));
        ASSERT_FALSE(buffered(3));
        ASSERT_EQ(net.flitsDelivered(), 0u);

        ASSERT_TRUE(net.closeConnection(h));
        kernel.step(); // the flit lands while the teardown is pending
        EXPECT_NE(net.connectionState(h), Network::ConnState::Gone);

        for (int t = 0; t < 2000 && net.flitsDelivered() == 0; ++t)
            kernel.step();
        EXPECT_EQ(net.flitsDelivered(), 1u);
        kernel.run(2);
        EXPECT_EQ(net.connectionState(h), Network::ConnState::Gone);
        EXPECT_EQ(net.openConnectionCount(), 0u);
    }
}

} // namespace
} // namespace mmr
