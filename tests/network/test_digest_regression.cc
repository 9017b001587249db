/**
 * @file
 * Pinned-digest regression: four reference runs whose
 * networkResultDigest values are hard-coded from the tree *before*
 * the control-plane fast path landed (flat probe `searched` table,
 * pooled setup state, word-parallel scheduler matching).
 *
 * The fast-path contract is "changes when work happens, never what
 * work happens": any optimization that alters an RNG draw order, a
 * probe search order, or a single delivered-flit count moves one of
 * these constants.  If a *reviewed* behavior change legitimately
 * shifts them, re-record with the config below and say so in the
 * commit — these constants are the before/after equality proof, not
 * a golden to refresh casually.
 *
 * The grid covers the static-workload and churn-population engines,
 * each clean and under a composed fault + recovery schedule (the
 * churn x faults cell exercises probe backtracking, teardown, and
 * recovery re-setups on top of the pooled fast path).  A fifth pin
 * holds the single-router harness's resultDigest, whose warm-up and
 * VBR deadline scoring read the router's departures.
 */

#include <gtest/gtest.h>

#include "harness/network_experiment.hh"
#include "harness/single_router.hh"

namespace mmr
{
namespace
{

NetworkExperimentConfig
referenceConfig(bool faults, bool churn)
{
    NetworkExperimentConfig c;
    c.topologySpec = "mesh:4x4";
    c.seed = 1234;
    c.net.router.vcsPerPort = 32;
    c.net.router.candidates = 8;
    c.cbrStreamsPerHost = churn ? 0 : 2;
    c.beFlowsPerHost = 1;
    c.warmupCycles = 500;
    c.measureCycles = 4000;
    c.drainCycles = 1500;
    if (faults) {
        c.faults.linkFailPer10k = 4.0;
        c.faults.meanRepairCycles = 1200;
        c.faults.probeDropRate = 0.02;
        c.recovery.enabled = true;
    }
    if (churn) {
        c.churn.enabled = true;
        c.churn.maxLiveSessions = 1024;
        c.churn.workload.arrivalsPer1k = 220.0;
        c.churn.workload.holdingMeanCycles = 900;
    }
    return c;
}

std::uint64_t
digestOf(bool faults, bool churn)
{
    return networkResultDigest(
        runNetworkExperiment(referenceConfig(faults, churn)));
}

TEST(DigestRegression, StaticCleanMatchesPreFastPathReference)
{
    EXPECT_EQ(digestOf(false, false), 0x396c06de4776ba34ULL);
}

TEST(DigestRegression, StaticFaultedMatchesPreFastPathReference)
{
    EXPECT_EQ(digestOf(true, false), 0x42313ecc5d49562eULL);
}

TEST(DigestRegression, ChurnCleanMatchesPreFastPathReference)
{
    EXPECT_EQ(digestOf(false, true), 0x61891946b410cbbaULL);
}

TEST(DigestRegression, ChurnFaultedMatchesPreFastPathReference)
{
    EXPECT_EQ(digestOf(true, true), 0xc8dcaf650757d382ULL);
}

/**
 * The single-router harness's departure accounting: the steady-state
 * detector's windowed delay decides the warm-up, and the VBR frame
 * deadlines are scored per departure, both read in the cycle the flit
 * crossed the switch.  Scoring departures one cycle late moves this
 * digest and the warm-up.
 */
TEST(DigestRegression, SingleRouterWarmupAndDeadlinesMatchParent)
{
    ExperimentConfig c;
    c.router.numPorts = 4;
    c.router.vcsPerPort = 32;
    c.offeredLoad = 0.6;
    c.measureCycles = 12000;
    c.seed = 1234;
    c.mix.cbrShare = 0.5;
    c.mix.vbrShare = 0.3;
    c.mix.beShare = 0.2;
    c.mix.vbrProfile.framesPerSecond = 2000.0;
    c.mix.abortLateFrames = true;
    c.autoWarmup = true;
    c.warmupWindow = 1000;
    c.maxWarmupCycles = 20000;
    const ExperimentResult r = runSingleRouter(c);
    EXPECT_EQ(r.warmupUsed, 13000u);
    EXPECT_EQ(r.vbr.deadlineMisses, 132u);
    EXPECT_EQ(r.vbr.deadlineTotal, 17650u);
    EXPECT_EQ(r.abortedFlits, 4823u);
    EXPECT_EQ(resultDigest(r), 0x98857abdee96a07aULL);
}

} // namespace
} // namespace mmr
