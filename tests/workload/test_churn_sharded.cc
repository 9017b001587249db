/**
 * @file
 * Serial-vs-sharded digest equality for churn workloads: the churn
 * engine runs coordinator-serial between host ticks, and all of its
 * draws live on seed-derived sub-RNGs, so a churning population must
 * produce a bit-identical networkResultDigest at shards {1, 2, 8} —
 * clean and under a fault plan — and on a worker thread.
 */

#include <gtest/gtest.h>

#include <exception>
#include <string>
#include <thread>

#include "harness/network_experiment.hh"
#include "sim/invariant.hh"
#include "workload/setup_path.hh"

namespace mmr
{
namespace
{

NetworkExperimentConfig
shardedChurnConfig(bool faulted)
{
    NetworkExperimentConfig c;
    c.topologySpec = "mesh:4x4"; // 16 nodes: divisible into 2 and 8
    c.seed = 90001;
    c.net.router.vcsPerPort = 32;
    c.net.router.candidates = 8;
    c.cbrStreamsPerHost = 0;
    c.beFlowsPerHost = 0;
    c.warmupCycles = 600;
    c.measureCycles = 4000;
    c.drainCycles = 2500;
    c.invariantPeriod = 16;

    c.churn.enabled = true;
    c.churn.maxLiveSessions = 256;
    c.churn.workload.arrivalsPer1k = 120.0;
    c.churn.workload.holdingMeanCycles = 700;
    c.churn.workload.flash.at = 1200;
    c.churn.workload.flash.rampCycles = 600;
    c.churn.workload.flash.holdCycles = 800;
    c.churn.workload.flash.peakFactor = 3.0;

    if (faulted) {
        c.faults.linkFailPer10k = 1.0;
        c.faults.meanRepairCycles = 2000;
        c.faults.probeDropRate = 0.02;
    }
    return c;
}

class InvariantGuard
{
  public:
    InvariantGuard() { invariant::setEnabled(true); }
    ~InvariantGuard() { invariant::clearOverride(); }
};

TEST(ChurnSharded, CleanDigestsMatchAcrossShardCounts)
{
    InvariantGuard guard;
    auto cfg = shardedChurnConfig(false);
    cfg.net.shards = 1;
    const auto serial = runNetworkExperiment(cfg);
    ASSERT_GT(serial.sessionsAdmitted, 0u);
    const auto want = networkResultDigest(serial);
    for (const unsigned shards : {2u, 8u}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        cfg.net.shards = shards;
        const auto r = runNetworkExperiment(cfg);
        EXPECT_EQ(networkResultDigest(r), want)
            << "sharded churn run diverged from the serial one";
        EXPECT_EQ(r.invariantChecks, serial.invariantChecks)
            << "the audit lanes ran a different number of checks";
    }
}

TEST(ChurnSharded, FaultedDigestsMatchAcrossShardCounts)
{
    InvariantGuard guard;
    auto cfg = shardedChurnConfig(true);
    cfg.net.shards = 1;
    const auto serial = runNetworkExperiment(cfg);
    ASSERT_GT(serial.sessionsArrived, 0u);
    const auto want = networkResultDigest(serial);
    for (const unsigned shards : {2u, 8u}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        cfg.net.shards = shards;
        const auto r = runNetworkExperiment(cfg);
        EXPECT_EQ(networkResultDigest(r), want)
            << "sharded faulted churn run diverged from serial";
        EXPECT_EQ(r.invariantChecks, serial.invariantChecks)
            << "the audit lanes ran a different number of checks";
    }
}

TEST(ChurnSharded, SetupPathDigestMatchesOnShardsAndThreads)
{
    // 150 arrivals per 1k cycles over 4000 measured cycles: the serial
    // run, the 2-shard core and a run on a fresh std::thread (the
    // --jobs execution path, with its own thread-local clock and
    // recorder) must agree bit for bit, clean and faulted.
    InvariantGuard guard;
    for (const bool faulted : {false, true}) {
        SCOPED_TRACE(faulted ? "faulted" : "clean");
        auto cfg = setupPathConfig(42, 150.0, 4000, faulted);
        const auto serial = runNetworkExperiment(cfg);
        EXPECT_GT(serial.sessionsAdmitted, 0u);
        EXPECT_GT(serial.sessionSetupLatency.p99, 0.0);
        EXPECT_EQ(serial.sessionsLeakedAtEnd, 0u);
        EXPECT_EQ(serial.pendingSetupsAtEnd, 0u);
        EXPECT_EQ(serial.openConnsAtEnd, 0u);
        const auto want = networkResultDigest(serial);

        std::uint64_t on_thread = 0;
        std::exception_ptr thread_error;
        std::thread worker([&] {
            try {
                on_thread = networkResultDigest(runNetworkExperiment(cfg));
            } catch (...) {
                thread_error = std::current_exception();
            }
        });
        worker.join();
        if (thread_error)
            std::rethrow_exception(thread_error);
        EXPECT_EQ(on_thread, want)
            << "a worker-thread run diverged from the serial one";

        cfg.net.shards = 2;
        const auto sharded = runNetworkExperiment(cfg);
        EXPECT_EQ(networkResultDigest(sharded), want)
            << "the 2-shard run diverged from the serial one";
        EXPECT_EQ(sharded.invariantChecks, serial.invariantChecks)
            << "the audit lanes ran a different number of checks";
    }
}

TEST(ChurnSharded, ShardingPreservesLeakFreedom)
{
    InvariantGuard guard;
    auto cfg = shardedChurnConfig(true);
    cfg.net.shards = 8;
    const auto r = runNetworkExperiment(cfg);
    EXPECT_EQ(r.sessionsLeakedAtEnd, 0u);
    EXPECT_EQ(r.pendingSetupsAtEnd, 0u);
    EXPECT_EQ(r.openConnsAtEnd, 0u);
    EXPECT_EQ(r.sessionsArrived,
              r.sessionsAdmitted + r.sessionsRejected);
    EXPECT_EQ(r.sessionsAdmitted,
              r.sessionsCompleted + r.sessionsAbandoned);
}

} // namespace
} // namespace mmr
