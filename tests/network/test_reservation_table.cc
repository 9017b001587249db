/**
 * @file
 * The probe-held reservation table behind every router's
 * admission-ledger audit.  One pass over the in-flight probes fills a
 * flat per-(node, output) table, cached under the probes' reservation
 * stamp, and each router reads its own row.  These tests hold the rows
 * equal to a direct per-node scan of the probes during a faulted churn
 * run, check that a by-name audit sees probe changes made earlier in
 * the same cycle, and check that a drifted allocated register still
 * panics while a probe holds a hop at that router.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "fault/injector.hh"
#include "harness/network_experiment.hh"
#include "network/network.hh"
#include "sim/invariant.hh"
#include "sim/kernel.hh"
#include "workload/churn.hh"

namespace mmr
{
namespace
{

NetworkConfig
netCfg()
{
    NetworkConfig c;
    c.seed = 1234;
    c.router.vcsPerPort = 32;
    c.router.candidates = 8;
    return c;
}

/** Reference: scan every in-flight probe's hops, keeping those at @p n
 * (the per-node accounting the one-pass table replaced). */
void
referenceScan(const ProbeSetupManager &probes, NodeId n,
              std::vector<unsigned> &alloc, std::vector<unsigned> &peak)
{
    for (std::size_t i = 0; i < probes.inFlight(); ++i) {
        const TimedSetup &s = probes.inFlightAt(i);
        for (const ReservedHop &hop : s.hops) {
            if (hop.node != n)
                continue;
            if (s.request.klass == TrafficClass::CBR) {
                alloc[hop.out] += s.request.allocCycles;
            } else {
                alloc[hop.out] += s.request.permCycles;
                peak[hop.out] += s.request.peakCycles;
            }
        }
    }
}

std::string
ledgerName(NodeId n)
{
    return "router" + std::to_string(n) + ".admission-ledger";
}

TEST(ReservationTable, RowsMatchAPerNodeScanUnderFaultedChurn)
{
    invariant::setEnabled(true);
    NetworkConfig ncfg = netCfg();
    Network net(topologyFromSpec("mesh:4x4", ncfg.seed), ncfg);

    FaultModel model = parseFaultModel("fail=4,repair=1200,drop=0.02");
    model.horizon = 6000;
    FaultInjector injector(
        net, FaultPlan::random(net.topology(), model, 77), 5);

    ChurnConfig ccfg;
    ccfg.enabled = true;
    ccfg.maxLiveSessions = 1024;
    ccfg.workload.arrivalsPer1k = 400.0;
    ccfg.workload.holdingMeanCycles = 900;
    ccfg.workload.mix = parseSessionMix("64k=2,10m=1,vbr:5m=1");
    ChurnEngine churn(net, ccfg, /*horizon=*/6000, /*seed=*/99);

    InvariantChecker checker;
    net.registerInvariants(checker, 16);
    Kernel kernel;
    kernel.add(&injector, "fault-injector");
    kernel.add(&net, "network");
    kernel.add(&checker, "invariants");

    unsigned withProbes = 0;
    unsigned peakHeld = 0;
    for (Cycle t = 0; t < 6000; ++t) {
        churn.tick(kernel.now());
        kernel.step();
        if (t % 97 != 0)
            continue;
        withProbes += net.pendingSetups() > 0;
        for (NodeId n = 0; n < net.numNodes(); ++n) {
            const unsigned ports = net.routerAt(n).config().numPorts;
            std::vector<unsigned> alloc(ports, 0), peak(ports, 0);
            std::vector<unsigned> refAlloc(ports, 0), refPeak(ports, 0);
            net.addProbeHoldings(n, alloc, peak);
            referenceScan(net.probes(), n, refAlloc, refPeak);
            ASSERT_EQ(alloc, refAlloc)
                << "node " << n << " after cycle " << t;
            ASSERT_EQ(peak, refPeak) << "node " << n << " after cycle " << t;
            peakHeld += std::accumulate(peak.begin(), peak.end(), 0u);
        }
    }
    invariant::clearOverride();

    EXPECT_GT(withProbes, 20u) << "checkpoints must see probes in flight";
    EXPECT_GT(peakHeld, 0u) << "no VBR probe held a hop at a checkpoint";
    EXPECT_GT(injector.linkDownsApplied(), 0u) << "the run must be faulted";
}

TEST(ReservationTable, ByNameAuditSeesSameCycleProbeChanges)
{
    Network net(Topology::mesh2d(3, 3), netCfg());
    InvariantChecker checker;
    net.registerInvariants(checker, 16);
    Kernel kernel;
    kernel.add(&net, "network");
    kernel.add(&checker, "invariants");
    kernel.run(20);

    // Cache the (empty) table, then reserve a hop within the same
    // cycle: a stale table would miss it and the ledger would panic.
    const Cycle now = kernel.now();
    checker.run(ledgerName(0), now);
    const std::uint64_t token = net.openCbrTimed(0, 8, 10 * kMbps, now);
    net.probes().step(now);
    ASSERT_EQ(net.pendingSetups(), 1u);
    ASSERT_EQ(net.probes().inFlightAt(0).hops.size(), 1u);
    for (NodeId n = 0; n < net.numNodes(); ++n)
        checker.run(ledgerName(n), now);

    // Completion turns the held hops into installed segments; a table
    // still holding them would count the bandwidth twice.
    Network::SetupOutcome r;
    while (!net.takeTimedResult(token, r))
        kernel.step();
    ASSERT_TRUE(r.accepted);
    for (NodeId n = 0; n < net.numNodes(); ++n)
        checker.run(ledgerName(n), kernel.now());
}

TEST(ReservationTableDeath, DriftUnderAHeldHopStillPanics)
{
    Network net(Topology::mesh2d(3, 3), netCfg());
    InvariantChecker checker;
    net.registerInvariants(checker, 16);
    net.openCbrTimed(0, 8, 10 * kMbps, 0);
    net.probes().step(0);
    ASSERT_EQ(net.probes().inFlightAt(0).hops.size(), 1u);
    const ReservedHop hop = net.probes().inFlightAt(0).hops.front();
    checker.run(ledgerName(hop.node), 0); // the probe's hold is accounted

    // One cycle/round more in the allocated register than the bound
    // segments and the probe's hold add up to.
    ASSERT_TRUE(net.routerAt(hop.node).admission().tryAdmitCbr(hop.out, 1));
    EXPECT_DEATH(checker.run(ledgerName(hop.node), 0),
                 "invariant 'admission-ledger' violated");
}

} // namespace
} // namespace mmr
