/**
 * @file
 * Tests for the §5 experiment harness: workload construction,
 * admission-bounded load targets, traffic mixes and measurement
 * gating.
 */

#include <gtest/gtest.h>

#include "harness/single_router.hh"

namespace mmr
{
namespace
{

ExperimentConfig
smallCfg(double load)
{
    ExperimentConfig cfg;
    cfg.router.numPorts = 4;
    cfg.router.vcsPerPort = 64;
    cfg.router.candidates = 4;
    cfg.offeredLoad = load;
    cfg.warmupCycles = 1000;
    cfg.measureCycles = 8000;
    cfg.seed = 5;
    return cfg;
}

TEST(Harness, HitsTheLoadTarget)
{
    for (double load : {0.2, 0.5, 0.8}) {
        const ExperimentResult r = runSingleRouter(smallCfg(load));
        EXPECT_NEAR(r.achievedLoad, load, 0.05) << "load " << load;
        EXPECT_EQ(r.offeredLoad, load);
    }
}

TEST(Harness, ZeroLoadIsEmptyButWellFormed)
{
    const ExperimentResult r = runSingleRouter(smallCfg(0.0));
    EXPECT_EQ(r.connections, 0u);
    EXPECT_EQ(r.flitsDelivered, 0u);
    EXPECT_EQ(r.meanDelayCycles, 0.0);
}

TEST(Harness, RespectsPerLinkCapacity)
{
    SingleRouterExperiment exp(smallCfg(0.9));
    const ExperimentResult r = exp.run();
    // With per-port admission, the aggregate allocation on each output
    // never exceeds the reservable round.
    auto &admission = exp.router().admission();
    for (PortId p = 0; p < 4; ++p)
        EXPECT_LE(admission.allocatedCycles(p),
                  admission.reservableCycles());
    EXPECT_GT(r.connections, 0u);
}

TEST(Harness, DeterministicAcrossRuns)
{
    const ExperimentResult a = runSingleRouter(smallCfg(0.6));
    const ExperimentResult b = runSingleRouter(smallCfg(0.6));
    EXPECT_EQ(a.connections, b.connections);
    EXPECT_EQ(a.flitsDelivered, b.flitsDelivered);
    EXPECT_DOUBLE_EQ(a.meanDelayCycles, b.meanDelayCycles);
}

TEST(Harness, SeedsChangeTheWorkload)
{
    auto cfg1 = smallCfg(0.6);
    auto cfg2 = smallCfg(0.6);
    cfg2.seed = 6;
    const ExperimentResult a = runSingleRouter(cfg1);
    const ExperimentResult b = runSingleRouter(cfg2);
    EXPECT_NE(a.flitsDelivered, b.flitsDelivered);
}

TEST(Harness, DelayUnitsAreConsistent)
{
    const ExperimentResult r = runSingleRouter(smallCfg(0.5));
    EXPECT_NEAR(r.meanDelayUs,
                r.meanDelayCycles * r.flitCycleNanos / 1000.0, 1e-9);
    EXPECT_NEAR(r.flitCycleNanos, 103.2, 0.5);
}

TEST(Harness, MixedWorkloadBuildsAllClasses)
{
    auto cfg = smallCfg(0.6);
    cfg.mix.cbrShare = 0.5;
    cfg.mix.vbrShare = 0.3;
    cfg.mix.beShare = 0.2;
    cfg.measureCycles = 20000;
    const ExperimentResult r = runSingleRouter(cfg);
    EXPECT_GT(r.cbr.flits, 0u);
    EXPECT_GT(r.vbr.flits, 0u);
    EXPECT_GT(r.bestEffort.flits, 0u);
    EXPECT_GT(r.cbr.delayCycles.count(), 0u);
}

TEST(Harness, PureVbrWorkload)
{
    auto cfg = smallCfg(0.4);
    cfg.mix.cbrShare = 0.0;
    cfg.mix.vbrShare = 1.0;
    cfg.measureCycles = 20000;
    const ExperimentResult r = runSingleRouter(cfg);
    EXPECT_GT(r.connections, 0u);
    EXPECT_EQ(r.cbr.flits, 0u);
    EXPECT_GT(r.vbr.flits, 0u);
}

TEST(Harness, WarmupGatesMeasurement)
{
    // With a warmup longer than the run, nothing is measured even
    // though flits flow.
    auto cfg = smallCfg(0.5);
    cfg.warmupCycles = 100000;
    cfg.measureCycles = 0;
    SingleRouterExperiment exp(cfg);
    (void)exp;
    auto cfg2 = smallCfg(0.5);
    cfg2.warmupCycles = 5000;
    cfg2.measureCycles = 0;
    const ExperimentResult r = runSingleRouter(cfg2);
    EXPECT_EQ(r.flitsDelivered, 0u)
        << "measured-flit count must exclude the warmup";
}

TEST(Harness, PerfectNeverSlowerThanArbitratedSwitch)
{
    auto biased = smallCfg(0.8);
    biased.router.scheduler = SchedulerKind::BiasedPriority;
    auto perfect = smallCfg(0.8);
    perfect.router.scheduler = SchedulerKind::Perfect;
    const ExperimentResult rb = runSingleRouter(biased);
    const ExperimentResult rp = runSingleRouter(perfect);
    EXPECT_LE(rp.meanDelayCycles, rb.meanDelayCycles + 1e-9)
        << "the perfect switch lower-bounds delay (§5.1)";
}

TEST(Harness, CustomRateLadderIsHonored)
{
    auto cfg = smallCfg(0.5);
    cfg.rateLadder = {20 * kMbps}; // a single allowed rate
    SingleRouterExperiment exp(cfg);
    exp.run();
    const double link = cfg.router.linkRateBps;
    const double expected_ia = interArrivalCycles(20 * kMbps, link);
    unsigned checked = 0;
    for (const ChannelRef in : exp.channels()) {
        const SegmentParams seg = exp.router().segment(in);
        ASSERT_NE(seg.id, kInvalidConn);
        EXPECT_NEAR(seg.interArrival, expected_ia, 0.5);
        ++checked;
    }
    EXPECT_GT(checked, 10u) << "0.5 load of 20 Mb/s streams on 4 ports";
}

TEST(Harness, VbrDeadlineAccountingIsPopulated)
{
    auto cfg = smallCfg(0.7);
    cfg.mix.cbrShare = 0.0;
    cfg.mix.vbrShare = 1.0;
    cfg.mix.vbrProfile.framesPerSecond = 2000.0;
    cfg.measureCycles = 30000;
    const ExperimentResult r = runSingleRouter(cfg);
    EXPECT_GT(r.vbr.deadlineTotal, 0u);
    EXPECT_LE(r.vbr.deadlineMisses, r.vbr.deadlineTotal);
    EXPECT_GE(r.vbr.deadlineMissRate(), 0.0);
    EXPECT_LE(r.vbr.deadlineMissRate(), 1.0);
}

TEST(Harness, AbortLateFramesSavesBandwidth)
{
    // A bursty profile whose big frames cannot fit their slot at the
    // declared peak rate: without aborts those flits are transmitted
    // anyway; with aborts the interface drops them at the source
    // (§4.3) and the router forwards fewer flits.
    auto base = smallCfg(0.6);
    base.mix.cbrShare = 0.0;
    base.mix.vbrShare = 1.0;
    base.mix.vbrProfile.framesPerSecond = 2000.0;
    base.mix.vbrProfile.sigma = 1.0;
    base.mix.vbrProfile.peakToMean = 1.3;
    base.measureCycles = 30000;

    auto aborting = base;
    aborting.mix.abortLateFrames = true;

    const ExperimentResult keep = runSingleRouter(base);
    const ExperimentResult drop = runSingleRouter(aborting);
    EXPECT_EQ(keep.abortedFlits, 0u);
    EXPECT_GT(drop.abortedFlits, 0u);
    EXPECT_LT(drop.flitsDelivered, keep.flitsDelivered)
        << "aborted flits never consume switch bandwidth";
}

TEST(Harness, InvalidLoadIsFatal)
{
    auto cfg = smallCfg(1.5);
    EXPECT_THROW(SingleRouterExperiment exp(cfg), std::runtime_error);
}

TEST(Harness, StageDecompositionIsHarvested)
{
    const ExperimentResult r = runSingleRouter(smallCfg(0.6));
    ASSERT_GT(r.flitsDelivered, 0u);
    // Every delivered flit crosses the switch and waits for at least
    // one arbitration decision; both stages must be populated.
    const auto &sw = r.stageHist[static_cast<std::size_t>(
        LatencyStage::SwitchTraversal)];
    const auto &arb =
        r.stageHist[static_cast<std::size_t>(LatencyStage::ArbWait)];
    EXPECT_EQ(sw.count(), r.flitsDelivered);
    EXPECT_EQ(arb.count(), r.flitsDelivered);
    // Summaries are derived from the same histograms and ordered.
    for (std::size_t s = 0; s < kNumLatencyStages; ++s) {
        const LatencySummary &sum = r.stageLatency[s];
        EXPECT_EQ(sum.count, r.stageHist[s].count());
        EXPECT_LE(sum.p50, sum.p90);
        EXPECT_LE(sum.p90, sum.p99);
        EXPECT_LE(sum.p99, sum.p999);
        EXPECT_LE(sum.p999, sum.maxCycles);
    }
    // The per-class totals mirror their histograms too.
    EXPECT_EQ(r.cbr.latency.count, r.cbr.delayHist.count());
}

TEST(Harness, QosBudgetCountsViolations)
{
    // A 1-cycle budget is unmeetable: every measured CBR flit takes
    // at least the switch-traversal cycle plus arbitration.
    auto tight = smallCfg(0.6);
    tight.cbrDelayBudget = 1;
    const ExperimentResult rt = runSingleRouter(tight);
    ASSERT_GT(rt.cbr.flits, 0u);
    EXPECT_EQ(rt.cbr.qos.flits, rt.cbr.flits);
    EXPECT_GT(rt.cbr.qos.violations, 0u);
    EXPECT_GT(rt.cbr.qos.violationRate(), 0.0);
    EXPECT_LE(rt.cbr.qos.violationRate(), 1.0);
    EXPECT_GT(rt.cbr.qos.worstExcessCycles, 0u);

    // A generous budget is always met.
    auto loose = smallCfg(0.6);
    loose.cbrDelayBudget = 1000000;
    const ExperimentResult rl = runSingleRouter(loose);
    EXPECT_EQ(rl.cbr.qos.flits, rl.cbr.flits);
    EXPECT_EQ(rl.cbr.qos.violations, 0u);
    EXPECT_EQ(rl.cbr.qos.worstExcessCycles, 0u);

    // Budget 0 disables the accounting entirely.
    const ExperimentResult roff = runSingleRouter(smallCfg(0.6));
    EXPECT_EQ(roff.cbr.qos.flits, 0u);
    EXPECT_EQ(roff.cbr.qos.violations, 0u);
}

TEST(HarnessDeath, ForcedPanicTripsTheInvariantMachinery)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto cfg = smallCfg(0.3);
    cfg.forcePanicAt = cfg.warmupCycles + 100;
    EXPECT_DEATH(runSingleRouter(cfg), "forced-panic");
}

} // namespace
} // namespace mmr
