/**
 * @file
 * Property-based churn sweep: seed-randomized session populations
 * (Poisson arrivals, flash crowd, exponential holding times, the
 * paper's rate-class mix) run both clean and under a stochastic fault
 * plan, with the full invariant battery force-enabled.  Every run
 * must satisfy the SessionLedger conservation laws, leave zero leaked
 * sessions / pending setups / open churn connections after the drain,
 * and reproduce a bit-identical networkResultDigest from its seed.
 *
 * The seed count scales with MMR_FAULT_PROP_SEEDS (default 10); CI's
 * sanitizer job raises it for a deeper sweep under ASan/TSan.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness/network_experiment.hh"
#include "sim/invariant.hh"
#include "workload/setup_path.hh"

namespace mmr
{
namespace
{

unsigned
seedCount()
{
    if (const char *env = std::getenv("MMR_FAULT_PROP_SEEDS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    return 10;
}

/** One churn configuration per seed; topologies and load rotate. */
NetworkExperimentConfig
churnConfig(unsigned s, bool faulted)
{
    static const char *kTopos[] = {"mesh:3x3", "ring:8",
                                   "irregular:10:4:4"};
    NetworkExperimentConfig c;
    c.topologySpec = kTopos[s % 3];
    c.seed = 1009 + 104729ULL * (s + 1);
    c.net.router.vcsPerPort = 32;
    c.net.router.candidates = 8;
    // Sessions are the only traffic: the static host streams are off.
    c.cbrStreamsPerHost = 0;
    c.beFlowsPerHost = 0;
    c.warmupCycles = 800;
    c.measureCycles = 5000;
    c.drainCycles = 2500;
    c.invariantPeriod = 8;

    c.churn.enabled = true;
    c.churn.maxLiveSessions = 64 + 32 * (s % 4);
    c.churn.workload.arrivalsPer1k = 60.0 + 40.0 * (s % 5);
    c.churn.workload.holdingMeanCycles = 600 + 150 * (s % 3);
    if (s % 2 == 0) {
        c.churn.workload.flash.at = 1500;
        c.churn.workload.flash.rampCycles = 800;
        c.churn.workload.flash.holdCycles = 1000;
        c.churn.workload.flash.peakFactor = 3.0;
    }
    if (s % 3 == 0) {
        c.churn.workload.diurnal.period = 4000;
        c.churn.workload.diurnal.amplitude = 0.4;
    }

    if (faulted) {
        c.faults.linkFailPer10k = 1.0;
        c.faults.meanRepairCycles = 2000;
        c.faults.probeDropRate = 0.02;
    }
    return c;
}

/** Force the invariant battery on for the duration of a test. */
class InvariantGuard
{
  public:
    InvariantGuard() { invariant::setEnabled(true); }
    ~InvariantGuard() { invariant::clearOverride(); }
};

/** The SessionLedger conservation laws, from the reported fields. */
void
expectLedgerConsistent(const NetworkExperimentResult &r)
{
    // Every arrival was decided by the end of the drain.
    EXPECT_EQ(r.sessionsArrived,
              r.sessionsAdmitted + r.sessionsRejected);
    // Every admitted session ran to completion or was abandoned.
    EXPECT_EQ(r.sessionsAdmitted,
              r.sessionsCompleted + r.sessionsAbandoned);
    EXPECT_LE(r.sessionsRejectedBusy, r.sessionsRejected);
    EXPECT_LE(r.sessionPeakLive, r.sessionsAdmitted);
    if (r.sessionsAdmitted + r.sessionsRejected > 0) {
        const double acc =
            static_cast<double>(r.sessionsAdmitted) /
            static_cast<double>(r.sessionsAdmitted +
                                r.sessionsRejected);
        EXPECT_DOUBLE_EQ(r.sessionAcceptance, acc);
    }
    // The <= 64 B per-live-session contract.
    EXPECT_LE(r.sessionLiveBytes, 64u);
}

/** Drain health: nothing leaked — no pool slot, no in-flight probe,
 * no still-open churn connection, no un-retired recorder. */
void
expectLeakFree(const NetworkExperimentResult &r)
{
    EXPECT_EQ(r.sessionsLeakedAtEnd, 0u);
    EXPECT_EQ(r.pendingSetupsAtEnd, 0u);
    EXPECT_EQ(r.openConnsAtEnd, 0u);
    // Recorders are first-touch: only sessions whose flits were
    // measured have one to retire, so this bounds above, it does not
    // reach equality (short sessions can live entirely in warm-up or
    // drain).
    EXPECT_LE(r.retiredConnRecorders, r.sessionsAdmitted);
}

TEST(ChurnProperties, CleanRunsHoldLedgerAndLeakNothing)
{
    InvariantGuard guard;
    const unsigned seeds = seedCount();
    for (unsigned s = 0; s < seeds; ++s) {
        SCOPED_TRACE("seed index " + std::to_string(s));
        const auto r = runNetworkExperiment(churnConfig(s, false));
        EXPECT_GT(r.invariantChecks, 0u);
        EXPECT_GT(r.sessionsArrived, 0u);
        EXPECT_GT(r.sessionsAdmitted, 0u);
        expectLedgerConsistent(r);
        expectLeakFree(r);
        // No faults: nothing to abandon a session.
        EXPECT_EQ(r.sessionsAbandoned, 0u);
        // Admitted sessions injected traffic that arrived.
        EXPECT_GT(r.sessionFlitsInjected, 0u);
        EXPECT_GT(r.flitsDelivered, 0u);
        // Setup latency was measured for every admitted session, and
        // at least one measured session retired its flit recorder.
        EXPECT_EQ(r.sessionSetupLatency.count, r.sessionsAdmitted);
        EXPECT_GE(r.sessionSetupLatency.p50, 1.0);
        EXPECT_GT(r.retiredConnRecorders, 0u);
    }
}

TEST(ChurnProperties, FaultedRunsHoldLedgerAndLeakNothing)
{
    InvariantGuard guard;
    const unsigned seeds = seedCount();
    for (unsigned s = 0; s < seeds; ++s) {
        SCOPED_TRACE("seed index " + std::to_string(s));
        const auto r = runNetworkExperiment(churnConfig(s, true));
        EXPECT_GT(r.invariantChecks, 0u);
        EXPECT_GT(r.sessionsArrived, 0u);
        expectLedgerConsistent(r);
        // Faults may abandon sessions mid-hold, but teardown still
        // releases every slot, probe and PCS entry.
        expectLeakFree(r);
    }
}

TEST(ChurnProperties, DigestReproducibleFromSeed)
{
    InvariantGuard guard;
    const unsigned seeds = std::min(seedCount(), 4u);
    for (unsigned s = 0; s < seeds; ++s) {
        for (const bool faulted : {false, true}) {
            SCOPED_TRACE("seed index " + std::to_string(s) +
                         (faulted ? " faulted" : " clean"));
            const auto cfg = churnConfig(s, faulted);
            const auto a = runNetworkExperiment(cfg);
            const auto b = runNetworkExperiment(cfg);
            EXPECT_EQ(networkResultDigest(a), networkResultDigest(b))
                << "same seed must reproduce the identical run";
        }
    }
}

TEST(ChurnProperties, FaultedSetupPathDrainsAndReproduces)
{
    // The setup path near the acceptance knee under link faults: 400
    // arrivals per 1k cycles over 2000 measured cycles, seeds from 42.
    InvariantGuard guard;
    const unsigned seeds = seedCount();
    for (unsigned s = 0; s < seeds; ++s) {
        SCOPED_TRACE("seed " + std::to_string(42 + s));
        const auto cfg = setupPathConfig(42 + s, 400.0, 2000, true);
        const auto r = runNetworkExperiment(cfg);
        EXPECT_GT(r.sessionsAdmitted, 0u);
        expectLedgerConsistent(r);
        expectLeakFree(r);
        EXPECT_EQ(networkResultDigest(r),
                  networkResultDigest(runNetworkExperiment(cfg)))
            << "same seed must reproduce the identical run";
    }
}

TEST(ChurnProperties, PoolCapRefusesNotCrashes)
{
    InvariantGuard guard;
    auto c = churnConfig(1, false);
    c.churn.maxLiveSessions = 8; // deliberately starved pool
    c.churn.workload.arrivalsPer1k = 400.0;
    const auto r = runNetworkExperiment(c);
    EXPECT_GT(r.sessionsRejectedBusy, 0u);
    expectLedgerConsistent(r);
    expectLeakFree(r);
    // The pool never grew past its cap.
    EXPECT_LE(r.sessionPeakLive, 8u);
    EXPECT_LE(r.sessionPoolBytes, 8u * 64u);
}

TEST(ChurnProperties, ChurnCoexistsWithStaticStreams)
{
    InvariantGuard guard;
    auto c = churnConfig(2, false);
    c.cbrStreamsPerHost = 1;
    c.cbrRateBps = 5 * kMbps;
    c.beFlowsPerHost = 1;
    c.beRateBps = 1 * kMbps;
    const auto r = runNetworkExperiment(c);
    expectLedgerConsistent(r);
    EXPECT_EQ(r.sessionsLeakedAtEnd, 0u);
    EXPECT_EQ(r.pendingSetupsAtEnd, 0u);
    // Static streams stay alive next to the churning population —
    // they are the only connections still open at the end (every
    // churn session tore its own down).
    EXPECT_EQ(r.streamsAlive, r.streamsAccepted);
    EXPECT_GT(r.streamsAccepted, 0u);
    EXPECT_EQ(r.openConnsAtEnd, r.streamsAlive);
    EXPECT_GT(r.sessionsAdmitted, 0u);
}

/**
 * A mix class no link can carry is refused when the engine is built:
 * a fatal error (exit 1 from a bench main, no crash dump), not a rate
 * assertion that aborts mid-run at the first such arrival.  The VBR
 * case fits the link on its mean and exceeds it only at its peak.
 */
TEST(ChurnMixDeathTest, UncarriableClassFailsAtConstruction)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    Network net(Topology::mesh2d(3, 3), NetworkConfig{});
    for (const char *mix : {"2g=1", "64k=4,vbr:1g=1"}) {
        SCOPED_TRACE(mix);
        ChurnConfig cfg;
        cfg.enabled = true;
        cfg.workload.mix = parseSessionMix(mix);
        EXPECT_EXIT(
            {
                try {
                    ChurnEngine churn(net, cfg, /*horizon=*/1000,
                                      /*seed=*/1);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "%s\n", e.what());
                    std::exit(1);
                }
                std::exit(0);
            },
            testing::ExitedWithCode(1),
            "fatal: churn mix class .* exceeds the link rate");
    }
}

} // namespace
} // namespace mmr
