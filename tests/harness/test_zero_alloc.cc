/**
 * @file
 * Steady-state allocation audit: once warmed up, a cycle of
 * MmrRouter::evaluate/advance must perform no heap allocation at all
 * — every per-cycle container (candidate lists, matching, scheduler
 * scratch, eligibility masks) is preallocated and reused, and flits
 * land in the slots each VC memory maps once, at construction.
 *
 * This lives in its own test binary because it replaces the global
 * operator new/delete with counting versions; the counter is only
 * armed inside the measurement window so gtest's own allocations do
 * not interfere.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "base/flat_map.hh"
#include "harness/network_experiment.hh"
#include "metrics/recorder.hh"
#include "obs/flight_recorder.hh"
#include "router/departure_tap.hh"
#include "router/router.hh"
#include "sim/kernel.hh"
#include "workload/churn.hh"

namespace
{

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};
std::atomic<std::uint64_t> allocatedBytes{0};

} // namespace

void *
operator new(std::size_t n)
{
    if (counting.load(std::memory_order_relaxed)) {
        allocations.fetch_add(1, std::memory_order_relaxed);
        allocatedBytes.fetch_add(n, std::memory_order_relaxed);
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace mmr
{
namespace
{

TEST(ZeroAlloc, SteadyStateCycleAllocatesNothing)
{
    RouterConfig cfg;
    cfg.numPorts = 4;
    cfg.vcsPerPort = 64;
    cfg.vcBufferFlits = 8;
    cfg.candidates = 4;
    cfg.seed = 7;

    MmrRouter router(cfg, /*metrics=*/nullptr);
    std::uint64_t delivered = 0;
    DepartureTap tap(router, [&](const MmrRouter::Departure &, Cycle) {
        ++delivered;
    });

    // A saturating mesh of CBR connections so every port arbitrates
    // every cycle.
    std::vector<ChannelRef> conns;
    for (PortId in = 0; in < 4; ++in) {
        for (PortId out = 0; out < 4; ++out) {
            const ChannelRef id =
                router.openCbr(in, out, 60 * kMbps);
            ASSERT_TRUE(id.valid());
            conns.push_back(id);
        }
    }

    Kernel kernel;
    kernel.add(&router, "dut");
    kernel.add(&tap);

    std::vector<std::uint32_t> seq(conns.size(), 0);
    const auto injectAll = [&] {
        for (std::size_t i = 0; i < conns.size(); ++i) {
            Flit f;
            f.seq = seq[i];
            f.readyTime = kernel.now();
            if (router.inject(conns[i], f))
                ++seq[i];
        }
    };

    // Warm-up: 2000 cycles of full-tilt traffic grows every scratch
    // container to its steady-state capacity.
    for (Cycle t = 0; t < 2000; ++t) {
        injectAll();
        kernel.step();
    }
    ASSERT_GT(delivered, 0u) << "workload never moved a flit";

    // Measurement: the next 2000 cycles must not allocate once.
    allocations.store(0);
    counting.store(true);
    for (Cycle t = 0; t < 2000; ++t) {
        injectAll();
        kernel.step();
    }
    counting.store(false);

    EXPECT_EQ(allocations.load(), 0u)
        << "heap allocation on the steady-state evaluate/advance path";
}

/**
 * The observability hot paths ride the same budget: metrics recording
 * (stage/class histogram stamps, QoS deadline checks) and the always-on
 * flight recorder's event ring must be allocation-free too, or turning
 * on forensics would perturb the very runs it is meant to explain.
 */
TEST(ZeroAlloc, MetricsAndFlightRecorderAllocateNothing)
{
    RouterConfig cfg;
    cfg.numPorts = 4;
    cfg.vcsPerPort = 64;
    cfg.vcBufferFlits = 8;
    cfg.candidates = 4;
    cfg.seed = 7;

    MetricsRecorder metrics;
    metrics.setQosBudget(TrafficClass::CBR, 4);
    FlightRecorder blackBox(1024);
    blackBox.activate();

    MmrRouter router(cfg, &metrics);
    std::uint64_t delivered = 0;
    DepartureTap tap(router, [&](const MmrRouter::Departure &, Cycle) {
        ++delivered;
    });

    std::vector<ChannelRef> conns;
    for (PortId in = 0; in < 4; ++in)
        for (PortId out = 0; out < 4; ++out) {
            const ChannelRef id = router.openCbr(in, out, 60 * kMbps);
            ASSERT_TRUE(id.valid());
            conns.push_back(id);
        }

    Kernel kernel;
    kernel.add(&router, "dut");
    kernel.add(&tap);
    metrics.startMeasurement(0);

    std::vector<std::uint32_t> seq(conns.size(), 0);
    const auto injectAll = [&] {
        for (std::size_t i = 0; i < conns.size(); ++i) {
            Flit f;
            f.seq = seq[i];
            f.readyTime = kernel.now();
            if (router.inject(conns[i], f))
                ++seq[i];
        }
    };

    for (Cycle t = 0; t < 2000; ++t) {
        injectAll();
        kernel.step();
    }
    ASSERT_GT(delivered, 0u) << "workload never moved a flit";
    ASSERT_GT(blackBox.recorded(), 0u)
        << "flight recorder saw no events";
    ASSERT_GT(metrics.stageHistogram(LatencyStage::SwitchTraversal)
                  .count(),
              0u)
        << "metrics recorder saw no flits";

    allocations.store(0);
    counting.store(true);
    for (Cycle t = 0; t < 2000; ++t) {
        injectAll();
        kernel.step();
    }
    counting.store(false);
    blackBox.deactivate();

    EXPECT_EQ(allocations.load(), 0u)
        << "heap allocation on the instrumented steady-state path";
}

/**
 * The steady-state session path draws its per-session state only from
 * the churn engine's pool and the control plane's recycled machinery:
 * probe slots, with each search's hops, searched table and distance
 * snapshot, come from the probe manager's free list, the network's
 * connection records live in a pooled slot table addressed by
 * slot+epoch handles, and the recorder's connection records come
 * from its free list.  Once the population has reached its high-water
 * mark, a steady churn window — setups, data transfer and teardowns
 * included — performs ZERO heap allocations.
 */
TEST(ZeroAlloc, ChurnSessionsAllocateOnlyFromThePool)
{
    NetworkConfig ncfg;
    ncfg.seed = 17;
    ncfg.router.vcsPerPort = 32;
    ncfg.router.candidates = 8;
    Network net(topologyFromSpec("mesh:3x3", ncfg.seed), ncfg);

    ChurnConfig ccfg;
    ccfg.enabled = true;
    ccfg.maxLiveSessions = 512;
    ccfg.workload.arrivalsPer1k = 150.0;
    ccfg.workload.holdingMeanCycles = 500;
    ChurnEngine churn(net, ccfg, /*horizon=*/20000, /*seed=*/99);

    Kernel kernel;
    kernel.add(&net, "network");

    // Warm-up: long enough for the population to reach steady state
    // (several holding times) and every pool slot / scratch container
    // to hit its high-water mark.
    for (Cycle t = 0; t < 6000; ++t) {
        churn.tick(kernel.now());
        kernel.step();
    }
    ASSERT_GT(churn.ledger().admitted, 0u);
    ASSERT_GT(churn.liveSessions(), 0u);
    ASSERT_LT(churn.peakLiveSessions(), ccfg.maxLiveSessions)
        << "pool saturated during warm-up; the test needs headroom";

    const std::uint64_t poolBytesBefore = churn.poolBytes();
    const std::uint64_t arrivedBefore = churn.ledger().arrived;

    allocations.store(0);
    counting.store(true);
    for (Cycle t = 0; t < 4000; ++t) {
        churn.tick(kernel.now());
        kernel.step();
    }
    counting.store(false);

    const std::uint64_t arrived =
        churn.ledger().arrived - arrivedBefore;
    ASSERT_GT(arrived, 0u) << "no sessions churned in the window";

    // (a) The pool is frozen: sessions recycled free slots only.
    EXPECT_EQ(churn.poolBytes(), poolBytesBefore)
        << "session pool grew during steady-state churn";

    // (b) The whole setup/teardown cycle is allocation-free: probe
    // begin/step, EPB search, connection install/remove and recorder
    // retire all recycle pooled capacity at steady state.
    EXPECT_EQ(allocations.load(), 0u)
        << "steady-state churn hit the heap ("
        << allocations.load() << " allocations for " << arrived
        << " arrivals)";
}

/**
 * The zero-time setup path (static streams, re-establishment) is held
 * to the same budget: once every destination's distances are cached
 * and the connection pool has grown, a round of openCbr over every
 * host pair, closeConnection and the teardown that follows allocates
 * nothing.
 */
TEST(ZeroAlloc, ZeroTimeSetupsAllocateNothing)
{
    NetworkConfig ncfg;
    ncfg.seed = 17;
    ncfg.router.vcsPerPort = 32;
    ncfg.router.candidates = 8;
    Network net(Topology::mesh2d(4, 4), ncfg);

    Kernel kernel;
    kernel.add(&net, "network");

    const NodeId nodes = net.numNodes();
    std::vector<Network::Handle> open;
    open.reserve(nodes * nodes);
    std::uint64_t setups = 0, accepted = 0;
    const auto round = [&] {
        for (NodeId src = 0; src < nodes; ++src) {
            for (NodeId dst = 0; dst < nodes; ++dst) {
                if (src == dst)
                    continue;
                const auto o = net.openCbr(src, dst, 1 * kMbps);
                ++setups;
                if (o.accepted) {
                    ++accepted;
                    open.push_back(o.handle);
                }
            }
        }
        for (const Network::Handle h : open)
            net.closeConnection(h);
        open.clear();
        kernel.run(4); // the idle segments drain and are removed
    };

    // Warm-up: every destination's distances get cached and the
    // connection pool grows to one round's peak.
    for (int i = 0; i < 8; ++i)
        round();
    ASSERT_GT(accepted, 0u) << "no setup was accepted";
    ASSERT_EQ(net.openConnectionCount(), 0u)
        << "teardown did not finish within the round";

    setups = 0;
    allocations.store(0);
    counting.store(true);
    for (int i = 0; i < 40; ++i)
        round();
    counting.store(false);

    EXPECT_EQ(setups, 40u * nodes * (nodes - 1));
    EXPECT_EQ(allocations.load(), 0u)
        << "zero-time setups hit the heap (" << allocations.load()
        << " allocations for " << setups << " setups)";
}

/**
 * The invariant audit rides the same budget.  Every 16th cycle a sweep
 * runs the whole network battery — each router's ledgers, including
 * admission-ledger's probe-held reservation table — plus the session
 * ledger, over a steady churn window with probes in flight.  Neither
 * the sweeps nor the idle-cycle dispatch between them may allocate,
 * run inline (one shard) or in four audit lanes, whose phase, per-lane
 * counters and trip guards run every cycle.
 */
TEST(ZeroAlloc, InvariantSweepsAllocateNothing)
{
    for (const unsigned shards : {1u, 4u}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        NetworkConfig ncfg;
        ncfg.seed = 17;
        ncfg.router.vcsPerPort = 32;
        ncfg.router.candidates = 8;
        ncfg.shards = shards;
        Network net(topologyFromSpec("mesh:3x3", ncfg.seed), ncfg);
        ASSERT_EQ(net.shards(), shards);

        ChurnConfig ccfg;
        ccfg.enabled = true;
        ccfg.maxLiveSessions = 512;
        ccfg.workload.arrivalsPer1k = 150.0;
        ccfg.workload.holdingMeanCycles = 500;
        ChurnEngine churn(net, ccfg, /*horizon=*/20000, /*seed=*/99);

        invariant::setEnabled(true);
        InvariantChecker checker;
        net.registerInvariants(checker, /*sweep_period=*/16);
        churn.registerInvariants(checker, /*period=*/16);
        ASSERT_EQ(checker.lanes(), shards);

        Kernel kernel;
        kernel.add(&net, "network");
        kernel.add(&checker, "invariants");

        for (Cycle t = 0; t < 6000; ++t) {
            churn.tick(kernel.now());
            kernel.step();
        }
        ASSERT_GT(churn.liveSessions(), 0u);

        const std::uint64_t checksBefore = checker.checksRun();
        unsigned sweepsWithProbes = 0;
        allocations.store(0);
        counting.store(true);
        for (Cycle t = 0; t < 4000; ++t) {
            churn.tick(kernel.now());
            if (kernel.now() % 16 == 0 && net.pendingSetups() > 0)
                ++sweepsWithProbes;
            kernel.step();
        }
        counting.store(false);
        invariant::clearOverride();

        ASSERT_GT(sweepsWithProbes, 0u)
            << "no sweep saw a probe in flight; the window must exercise "
               "the probe-held reservation table";
        // 9 routers' matching-validity every cycle, plus full sweeps.
        EXPECT_GT(checker.checksRun() - checksBefore, 4000u * 9u);
        EXPECT_EQ(allocations.load(), 0u)
            << "the invariant audit hit the heap (" << allocations.load()
            << " allocations)";
    }
}

/**
 * Network::reserveSessions puts every slot it mints on the free list,
 * also when a connection is already open: the setups that follow take
 * those slots, with their hop capacity, instead of growing the pool.
 */
TEST(ZeroAlloc, SessionsReservedWithAConnectionOpenAllocateNothing)
{
    NetworkConfig ncfg;
    ncfg.seed = 17;
    ncfg.router.vcsPerPort = 32;
    ncfg.router.candidates = 8;
    Network net(topologyFromSpec("mesh:3x3", ncfg.seed), ncfg);

    Kernel kernel;
    kernel.add(&net, "network");

    // Warm-up, one connection at a time so the pool stays at one slot:
    // every destination's distances get cached.
    const NodeId nodes = net.numNodes();
    for (NodeId src = 0; src < nodes; ++src) {
        for (NodeId dst = 0; dst < nodes; ++dst) {
            if (src == dst)
                continue;
            const auto o = net.openCbr(src, dst, 1 * kMbps);
            ASSERT_TRUE(o.accepted);
            net.closeConnection(o.handle);
            kernel.run(2);
        }
    }
    ASSERT_EQ(net.openConnectionCount(), 0u);

    const auto keep = net.openCbr(0, 8, 1 * kMbps);
    ASSERT_TRUE(keep.accepted);
    net.reserveSessions(64);
    EXPECT_EQ(net.openConnectionCount(), 1u)
        << "every minted slot is free";

    unsigned accepted = 0;
    allocations.store(0);
    counting.store(true);
    for (unsigned k = 0; k < 40; ++k) {
        const NodeId src = k % nodes;
        const NodeId dst = (src + 1 + k / nodes) % nodes;
        accepted += net.openCbr(src, dst, 1 * kMbps).accepted;
    }
    counting.store(false);

    EXPECT_EQ(accepted, 40u);
    EXPECT_EQ(net.openConnectionCount(), 41u);
    EXPECT_EQ(allocations.load(), 0u)
        << "setups after reserveSessions hit the heap ("
        << allocations.load() << " allocations for 40 setups)";
}

/**
 * Datagram placement rides the same budget: a warmed network whose
 * best-effort bursts park datagrams in the pending queue (each host
 * sends more at once than its NI port has VCs) retries them every
 * cycle without touching the heap.
 */
TEST(ZeroAlloc, DatagramsAllocateNothing)
{
    NetworkConfig ncfg;
    ncfg.seed = 17;
    ncfg.router.vcsPerPort = 16;
    ncfg.router.candidates = 4;
    Network net(topologyFromSpec("mesh:3x3", ncfg.seed), ncfg);

    Kernel kernel;
    kernel.add(&net, "network");

    const NodeId nodes = net.numNodes();
    std::uint32_t seq = 0;
    // Every 64 cycles each host sends `burst` datagrams, one flow tag
    // per host, spread over the other eight hosts.
    const auto burst = [&](unsigned per_host) {
        for (NodeId src = 0; src < nodes; ++src) {
            for (unsigned k = 0; k < per_host; ++k) {
                const NodeId dst = (src + 1 + k % (nodes - 1)) % nodes;
                net.sendDatagram(src, dst, TrafficClass::BestEffort,
                                 kBestEffortTagBase +
                                     src * kBestEffortTagsPerHost,
                                 kernel.now(), seq++);
            }
        }
    };
    std::uint64_t parked = 0;
    const auto run = [&](Cycle cycles, unsigned per_host) {
        for (Cycle t = 0; t < cycles; ++t) {
            if (kernel.now() % 64 == 0)
                burst(per_host);
            parked = std::max(parked, net.pendingDatagrams());
            kernel.step();
        }
    };

    // Warm-up: one double burst drives every queue past the steady
    // bursts' high-water mark, then the steady pattern settles.
    burst(48);
    run(4096, 24);
    ASSERT_GT(parked, 0u) << "no datagram was parked";
    ASSERT_GT(net.datagramsDelivered(), 0u);

    const std::uint64_t sentBefore = net.datagramsSent();
    const std::uint64_t doneBefore = net.datagramsDelivered();
    parked = 0;
    allocations.store(0);
    counting.store(true);
    run(4096, 24);
    counting.store(false);

    EXPECT_GT(parked, 0u) << "the window parked no datagram";
    EXPECT_GT(net.datagramsDelivered(), doneBefore);
    EXPECT_EQ(net.datagramDrops(), 0u);
    EXPECT_EQ(allocations.load(), 0u)
        << "datagram placement hit the heap (" << allocations.load()
        << " allocations for " << net.datagramsSent() - sentBefore
        << " datagrams)";
}

/**
 * The sharded core rides the same budget: a warmed 4-shard network
 * carrying CBR streams and best-effort datagrams deposits landed flits
 * from each shard's arrival list and replays the mailbox logs without
 * touching the heap, on the coordinator or on a worker (the counter is
 * atomic, so worker allocations count too).
 */
TEST(ZeroAlloc, FourShardNetworkAllocatesNothing)
{
    NetworkConfig ncfg;
    ncfg.seed = 17;
    ncfg.router.vcsPerPort = 16;
    ncfg.router.candidates = 4;
    ncfg.shards = 4;
    Network net(topologyFromSpec("mesh:4x4", ncfg.seed), ncfg);
    ASSERT_EQ(net.shards(), 4u);

    // One CBR stream from every host to the host two rows down: with
    // router n on shard n mod 4, every hop crosses shards.
    const NodeId nodes = net.numNodes();
    std::vector<Network::Handle> streams;
    for (NodeId src = 0; src < nodes; ++src) {
        const auto o = net.openCbr(src, (src + nodes / 2) % nodes,
                                   40 * kMbps);
        ASSERT_TRUE(o.accepted);
        streams.push_back(o.handle);
    }

    Kernel kernel;
    kernel.add(&net, "network");
    std::uint32_t seq = 0;
    const auto run = [&](Cycle cycles) {
        for (Cycle t = 0; t < cycles; ++t) {
            const Cycle now = kernel.now();
            if (now % 16 == 0) {
                for (const Network::Handle h : streams) {
                    Flit f;
                    f.seq = seq++;
                    f.createTime = now;
                    net.inject(h, f, now);
                }
            }
            if (now % 64 == 0) {
                for (NodeId src = 0; src < nodes; ++src)
                    net.sendDatagram(src, (src + 5) % nodes,
                                     TrafficClass::BestEffort,
                                     kBestEffortTagBase +
                                         src * kBestEffortTagsPerHost,
                                     now, seq++);
            }
            kernel.step();
        }
    };

    run(4096);
    ASSERT_GT(net.flitsDelivered(), 0u);
    ASSERT_GT(net.datagramsDelivered(), 0u);

    const std::uint64_t deliveredBefore = net.flitsDelivered();
    const std::uint64_t datagramsBefore = net.datagramsDelivered();
    allocations.store(0);
    counting.store(true);
    run(4096);
    counting.store(false);

    EXPECT_GT(net.flitsDelivered() - deliveredBefore,
              net.datagramsDelivered() - datagramsBefore)
        << "the window delivered no stream flit";
    EXPECT_GT(net.datagramsDelivered(), datagramsBefore);
    EXPECT_EQ(allocations.load(), 0u)
        << "the 4-shard network hit the heap (" << allocations.load()
        << " allocations)";
}

/**
 * A FlatMap reserved for n entries churns a sliding window of n live
 * keys — one erase and one insert per round, the session pattern —
 * without allocating: live entries never cross the growth limit, and
 * the same-capacity tombstone sweeps (several in this window) recycle
 * the rehash spare that reserve() minted.
 */
TEST(ZeroAlloc, ReservedFlatMapChurnAllocatesNothing)
{
    constexpr std::uint32_t kLive = 64;
    FlatMap<std::uint32_t, std::uint32_t> m;
    m.reserve(kLive);

    allocations.store(0);
    counting.store(true);
    for (std::uint32_t k = 0; k < kLive; ++k)
        m.insert(k, k);
    for (std::uint32_t k = kLive; k < 8 * kLive; ++k) {
        m.erase(k - kLive);
        m.insert(k, k);
    }
    counting.store(false);

    EXPECT_EQ(m.size(), kLive);
    EXPECT_EQ(allocations.load(), 0u)
        << "reserved FlatMap churn hit the heap";
}

/**
 * The recorder's connection table holds a 4 B index entry per id and
 * a record per live connection, so reserving it for 4096 sessions
 * costs under a megabyte.  The bound is a quarter of the 4,456,448 B
 * that 120 B records held by value in the index slots and their
 * rehash spare would take.  Once reserved, recording and releasing
 * that many connections in churn order allocates nothing.
 */
TEST(ZeroAlloc, RecorderReserveIsSmallAndChurnsAllocationFree)
{
    constexpr std::uint32_t kSessions = 4096;
    MetricsRecorder m;
    m.startMeasurement(0);

    allocations.store(0);
    allocatedBytes.store(0);
    counting.store(true);
    m.reserve(kSessions);
    counting.store(false);
    EXPECT_LT(allocatedBytes.load(), 4456448u / 4)
        << allocatedBytes.load() << " B in " << allocations.load()
        << " allocations";

    allocations.store(0);
    counting.store(true);
    for (ConnId id = 0; id < 4 * kSessions; ++id) {
        if (id >= kSessions)
            m.releaseConnection(kPcsLabelBase + id - kSessions);
        m.recordDeparture(kPcsLabelBase + id, id, 3.0);
        m.recordDeparture(kPcsLabelBase + id, id + 1, 5.0);
    }
    counting.store(false);

    EXPECT_EQ(m.connections().size(), kSessions);
    EXPECT_EQ(m.retiredConnections(), 3u * kSessions);
    EXPECT_EQ(allocations.load(), 0u)
        << "reserved recorder churn hit the heap";
}

} // namespace
} // namespace mmr
