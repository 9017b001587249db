/**
 * @file
 * Tests for the timed (distributed) connection-establishment
 * protocol: measured setup latency, consistency with the algorithmic
 * EPB on a quiet network, realistic contention between concurrent
 * probes, backtracking in time, and resource integrity afterwards.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "network/network.hh"
#include "sim/kernel.hh"

namespace mmr
{
namespace
{

NetworkConfig
smallCfg()
{
    NetworkConfig cfg;
    cfg.router.vcsPerPort = 16;
    cfg.router.candidates = 4;
    cfg.probeHopCycles = 2;
    cfg.seed = 17;
    return cfg;
}

class TimedSetupTest : public ::testing::Test
{
  protected:
    void
    build(const Topology &t, NetworkConfig cfg = smallCfg())
    {
        net = std::make_unique<Network>(t, cfg);
        kernel.add(net.get());
    }

    /** Run until the token completes (bounded) and take its outcome. */
    std::optional<Network::SetupOutcome>
    await(std::uint64_t token, Cycle bound = 10000)
    {
        Network::SetupOutcome r;
        for (Cycle i = 0; !net->takeTimedResult(token, r); ++i) {
            if (i == bound)
                return std::nullopt;
            kernel.step();
        }
        return r;
    }

    std::unique_ptr<Network> net;
    Kernel kernel;
};

TEST_F(TimedSetupTest, EstablishesWithMeasuredLatency)
{
    build(Topology::mesh2d(3, 3));
    const auto token = net->openCbrTimed(0, 8, 10 * kMbps, kernel.now());
    EXPECT_EQ(net->pendingSetups(), 1u);
    const auto r = await(token);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->accepted);
    EXPECT_EQ(r->pathLength, 5u);
    EXPECT_EQ(r->forwardSteps, 4u);
    EXPECT_EQ(r->backtrackSteps, 0u);
    // Probe: 4 forward hops + destination reserve; ack: 5 hops back.
    // Each action costs hopLatency = 2 cycles.
    EXPECT_GE(r->setupCycles, 2u * (4u + 5u));
    EXPECT_LE(r->setupCycles, 2u * (4u + 5u) + 4u);
    EXPECT_EQ(net->pendingSetups(), 0u);
    EXPECT_EQ(net->openConnectionCount(), 1u);
}

TEST_F(TimedSetupTest, ConnectionIsUsableAfterEstablishment)
{
    build(Topology::ring(4));
    const auto token = net->openCbrTimed(0, 2, 100 * kMbps, kernel.now());
    const auto r = await(token);
    ASSERT_TRUE(r.has_value());
    ASSERT_TRUE(r->accepted);
    net->endToEnd().startMeasurement(0);
    for (int i = 0; i < 5; ++i) {
        Flit f;
        f.seq = static_cast<std::uint32_t>(i);
        f.createTime = kernel.now();
        ASSERT_TRUE(net->inject(r->handle, f, kernel.now()));
        kernel.run(13);
    }
    kernel.run(100);
    const auto *rec = net->endToEnd().connection(r->id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->delay().count(), 5u);
}

TEST_F(TimedSetupTest, MatchesAlgorithmicAcceptanceOnQuietNetwork)
{
    // With no concurrency, the timed protocol and the algorithmic
    // search must accept the same demand (same resources consumed).
    Rng rng(5);
    const Topology topo = Topology::irregular(10, 4, 4, rng);

    build(topo);
    unsigned timed_accepted = 0;
    for (unsigned i = 0; i < 40; ++i) {
        const NodeId src = static_cast<NodeId>(i % 10);
        const NodeId dst = static_cast<NodeId>((i + 3) % 10);
        const auto token =
            net->openCbrTimed(src, dst, 20 * kMbps, kernel.now());
        const auto r = await(token);
        ASSERT_TRUE(r.has_value());
        timed_accepted += r->accepted;
    }

    Network net2(topo, smallCfg());
    unsigned algo_accepted = 0;
    for (unsigned i = 0; i < 40; ++i) {
        const NodeId src = static_cast<NodeId>(i % 10);
        const NodeId dst = static_cast<NodeId>((i + 3) % 10);
        algo_accepted += net2.openCbr(src, dst, 20 * kMbps).accepted;
    }
    EXPECT_EQ(timed_accepted, algo_accepted);
}

/**
 * A bank of routers shaped for a topology with its own probe manager,
 * seeded @p seed.  Nothing is installed: accepted paths stay held as
 * reserved hops, so load builds up across setups.
 */
struct RouterBank
{
    RouterBank(const Topology &t, std::uint64_t seed) : topo(t)
    {
        for (NodeId n = 0; n < topo.numNodes(); ++n) {
            RouterConfig rc;
            rc.numPorts = topo.degree(n) + 1;
            rc.vcsPerPort = 8;
            rc.candidates = 2;
            rc.seed = n + 1;
            routers.push_back(std::make_unique<MmrRouter>(rc));
        }
        probes = std::make_unique<ProbeSetupManager>(
            topo, [this](NodeId n) -> MmrRouter & { return *routers[n]; },
            [this](TimedSetup &s) { done = s; }, seed);
    }

    /** The manager's callbacks hold this bank's address. */
    RouterBank(const RouterBank &) = delete;
    RouterBank &operator=(const RouterBank &) = delete;

    /** Take the whole reservable bandwidth of output @p out at @p n. */
    void
    saturate(NodeId n, PortId out)
    {
        AdmissionController &admit = routers[n]->admission();
        ASSERT_TRUE(admit.tryAdmitCbr(out, admit.reservableCycles()));
    }

    /** Admission registers and free output VCs of every port. */
    std::vector<unsigned>
    state()
    {
        std::vector<unsigned> v;
        for (NodeId n = 0; n < topo.numNodes(); ++n) {
            for (PortId p = 0; p <= topo.degree(n); ++p) {
                v.push_back(routers[n]->admission().allocatedCycles(p));
                v.push_back(routers[n]->admission().peakCycles(p));
                v.push_back(routers[n]->routing().freeOutputVcCount(p));
            }
        }
        return v;
    }

    Topology topo;
    std::vector<std::unique_ptr<MmrRouter>> routers;
    std::unique_ptr<ProbeSetupManager> probes;
    std::optional<TimedSetup> done;
    Cycle now = 0;
};

/** What a run of setups exercised. */
struct DriverTally
{
    unsigned accepted = 0;
    unsigned refused = 0;
    unsigned backtracks = 0;
};

/**
 * Run @p reqs through both drivers of the one search, in order:
 * zero-time establish() on @p zero with Rng(seed), and timed probes
 * on @p timed, whose manager is seeded @p seed.  @p zero's own
 * manager has another seed: its links must be ordered by the RNG
 * establish() is given.  Adds what the run exercised to @p tally.
 */
void
expectDriversAgree(RouterBank &zero, RouterBank &timed,
                   const std::vector<SetupRequest> &reqs,
                   SetupPolicy policy, std::uint64_t seed,
                   DriverTally &tally)
{
    Rng rng(seed);
    PathSearch search;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "request " << i << " seed "
                                        << seed);
        const std::vector<unsigned> before = zero.state();
        EXPECT_EQ(timed.state(), before);

        const bool accepted =
            zero.probes->establish(reqs[i], policy, rng, search);

        timed.done.reset();
        timed.probes->begin(reqs[i], policy, timed.now);
        for (Cycle bound = 0; !timed.done && bound < 10000; ++bound)
            timed.probes->step(timed.now++);
        if (!timed.done) {
            ADD_FAILURE() << "timed probe never completed";
            return;
        }

        EXPECT_EQ(timed.done->state == SetupState::Established, accepted);
        EXPECT_EQ(timed.done->hops, search.hops);
        EXPECT_EQ(timed.done->forwardSteps, search.forwardSteps);
        EXPECT_EQ(timed.done->backtrackSteps, search.backtrackSteps);
        if (accepted) {
            ++tally.accepted;
        } else {
            ++tally.refused;
            EXPECT_TRUE(search.hops.empty());
            EXPECT_EQ(zero.state(), before)
                << "zero-time refusal left a reservation behind";
            EXPECT_EQ(timed.state(), before)
                << "timed refusal left a reservation behind";
        }
        tally.backtracks += search.backtrackSteps;
    }
}

TEST(SearchDrivers, ZeroTimeAndTimedStepTheSameSearch)
{
    // An irregular LAN with some links saturated, loaded until setups
    // are refused: EPB must backtrack around the dead ends.
    Rng topo_rng(5);
    const Topology lan = Topology::irregular(12, 4, 4, topo_rng);
    std::vector<SetupRequest> reqs;
    for (unsigned i = 0; i < 60; ++i) {
        SetupRequest req;
        req.src = static_cast<NodeId>(i % 12);
        req.dst = static_cast<NodeId>((i * 5 + 3) % 12);
        if (req.src == req.dst)
            continue;
        req.klass = TrafficClass::CBR;
        req.allocCycles = 2 + i % 4;
        reqs.push_back(req);
    }
    for (SetupPolicy policy : {SetupPolicy::Epb, SetupPolicy::Greedy}) {
        DriverTally tally;
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            RouterBank zero(lan, ~seed), timed(lan, seed);
            for (NodeId n = 0; n < lan.numNodes(); n += 3) {
                const PortId out = lan.ports(n).front().localPort;
                zero.saturate(n, out);
                timed.saturate(n, out);
            }
            expectDriversAgree(zero, timed, reqs, policy, seed, tally);
        }
        EXPECT_GT(tally.accepted, 0u);
        EXPECT_GT(tally.refused, 0u) << "the load never refused a setup";
        if (policy == SetupPolicy::Epb) {
            EXPECT_GT(tally.backtracks, 0u) << "EPB never backtracked";
        } else {
            EXPECT_EQ(tally.backtracks, 0u) << "greedy never backtracks";
        }
    }
}

TEST(SearchDrivers, SaturatedDestinationNiIsRefusedAlike)
{
    // Several minimal paths reach node 8 of a 3x3 mesh, but its host
    // link is full: every path dead-ends at the destination NI.
    const Topology mesh = Topology::mesh2d(3, 3);
    SetupRequest req;
    req.src = 0;
    req.dst = 8;
    req.klass = TrafficClass::CBR;
    req.allocCycles = 1;
    const std::vector<SetupRequest> reqs(3, req);
    for (SetupPolicy policy : {SetupPolicy::Epb, SetupPolicy::Greedy}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            RouterBank zero(mesh, ~seed), timed(mesh, seed);
            zero.saturate(8, mesh.degree(8));
            timed.saturate(8, mesh.degree(8));
            DriverTally tally;
            expectDriversAgree(zero, timed, reqs, policy, seed, tally);
            EXPECT_EQ(tally.refused, reqs.size());
            // EPB is exhaustive and never searches a link twice: it
            // backs out of each of the 12 links of the minimal paths
            // to 8 exactly once before giving up.
            if (policy == SetupPolicy::Epb) {
                EXPECT_EQ(tally.backtracks, 12u * reqs.size());
            }
        }
    }
}

TEST_F(TimedSetupTest, RefusalReleasesEverything)
{
    Topology line(3);
    line.addLink(0, 1);
    line.addLink(1, 2);
    build(line);
    // Saturate the middle link.
    const PortId p12 = line.portTowards(1, 2);
    MmrRouter &r1 = net->routerAt(1);
    ASSERT_TRUE(r1.admission().tryAdmitCbr(
        p12, r1.admission().reservableCycles()));

    const auto token = net->openCbrTimed(0, 2, 10 * kMbps, kernel.now());
    const auto r = await(token);
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(r->accepted);
    EXPECT_GT(r->backtrackSteps, 0u);
    EXPECT_GT(r->setupCycles, 0u);
    // Node 0's resources are fully restored.
    MmrRouter &r0 = net->routerAt(0);
    EXPECT_EQ(r0.admission().allocatedCycles(line.portTowards(0, 1)),
              0u);
    EXPECT_EQ(r0.routing().freeOutputVcCount(line.portTowards(0, 1)),
              16u);
}

TEST_F(TimedSetupTest, ConcurrentProbesContendForTheLastVc)
{
    // A 2-node link with exactly one remaining VC: two simultaneous
    // probes race; exactly one connection is established.
    NetworkConfig cfg = smallCfg();
    cfg.router.vcsPerPort = 2;
    cfg.router.candidates = 2;
    Topology pair(2);
    pair.addLink(0, 1);
    build(pair, cfg);
    // Eat one of the two output VCs on 0 -> 1 and one NI VC at 1, so
    // only one full path remains.
    const PortId p01 = pair.portTowards(0, 1);
    ASSERT_NE(net->routerAt(0).routing().allocOutputVc(p01), kInvalidVc);
    ASSERT_NE(net->routerAt(1).routing().allocOutputVc(net->niPort(1)),
              kInvalidVc);

    const auto t1 = net->openCbrTimed(0, 1, 10 * kMbps, kernel.now());
    const auto t2 = net->openCbrTimed(0, 1, 10 * kMbps, kernel.now());
    const auto r1 = await(t1);
    const auto r2 = await(t2);
    ASSERT_TRUE(r1.has_value());
    ASSERT_TRUE(r2.has_value());
    EXPECT_NE(r1->accepted, r2->accepted)
        << "exactly one of the racing probes can win the last VC";
    EXPECT_EQ(net->openConnectionCount(), 1u);
}

TEST_F(TimedSetupTest, ManyConcurrentSetupsAllComplete)
{
    build(Topology::mesh2d(4, 4));
    std::vector<std::uint64_t> tokens;
    for (NodeId src = 0; src < 16; ++src)
        tokens.push_back(net->openCbrTimed(
            src, static_cast<NodeId>((src + 7) % 16), 5 * kMbps,
            kernel.now()));
    kernel.run(2000);
    EXPECT_EQ(net->pendingSetups(), 0u);
    unsigned accepted = 0;
    for (auto t : tokens) {
        Network::SetupOutcome r;
        ASSERT_TRUE(net->takeTimedResult(t, r));
        accepted += r.accepted;
    }
    EXPECT_EQ(accepted, 16u) << "a quiet 4x4 mesh fits all of these";
    EXPECT_EQ(net->openConnectionCount(), 16u);
}

TEST_F(TimedSetupTest, VbrTimedSetupReservesBothRegisters)
{
    build(Topology::ring(4));
    // Rates large enough that perm and peak quantize to different
    // cycle counts (round here is only 32 cycles).
    const auto token = net->openVbrTimed(0, 2, 100 * kMbps,
                                         400 * kMbps, 2, kernel.now());
    const auto r = await(token);
    ASSERT_TRUE(r.has_value());
    ASSERT_TRUE(r->accepted);
    // Every router along the path carries permanent + peak state and
    // the user priority.
    const auto path = net->connectionPath(r->handle);
    ASSERT_GE(path.size(), 2u);
    for (std::size_t k = 0; k + 1 < path.size(); ++k) {
        const SegmentParams seg =
            net->routerAt(path[k].node).segment(path[k].in);
        ASSERT_EQ(seg.id, r->id);
        EXPECT_EQ(seg.klass, TrafficClass::VBR);
        EXPECT_GT(seg.permCycles, 0u);
        EXPECT_GT(seg.peakCycles, seg.permCycles);
        EXPECT_EQ(seg.priority, 2);
        EXPECT_GT(net->routerAt(path[k].node).admission().peakCycles(
                      seg.out),
                  0u);
    }
}

TEST_F(TimedSetupTest, GreedyPolicyCanRefuseWhereEpbBacktracks)
{
    // Diamond with one saturated branch, as in the EPB unit tests —
    // but driven through the timed protocol.
    Topology diamond(4);
    diamond.addLink(0, 1);
    diamond.addLink(0, 2);
    diamond.addLink(1, 3);
    diamond.addLink(2, 3);
    build(diamond);
    MmrRouter &r1 = net->routerAt(1);
    ASSERT_TRUE(r1.admission().tryAdmitCbr(
        diamond.portTowards(1, 3), r1.admission().reservableCycles()));

    unsigned epb_ok = 0, greedy_ok = 0;
    for (int i = 0; i < 8; ++i) {
        const auto te = net->openCbrTimed(0, 3, 1 * kMbps, kernel.now(),
                                          SetupPolicy::Epb);
        const auto re = await(te);
        ASSERT_TRUE(re.has_value());
        if (re->accepted) {
            ++epb_ok;
            net->closeConnection(re->handle);
            kernel.run(20);
        }
        const auto tg = net->openCbrTimed(0, 3, 1 * kMbps, kernel.now(),
                                          SetupPolicy::Greedy);
        const auto rg = await(tg);
        ASSERT_TRUE(rg.has_value());
        if (rg->accepted) {
            ++greedy_ok;
            net->closeConnection(rg->handle);
            kernel.run(20);
        }
    }
    EXPECT_EQ(epb_ok, 8u);
    EXPECT_LT(greedy_ok, 8u);
}

} // namespace
} // namespace mmr
