/**
 * @file
 * Parallel sweep runner (sim/sweep.hh): worker-count clamping, result
 * ordering, and — the property everything else rests on — per-point
 * result digests that are bit-identical no matter how many worker
 * threads execute the sweep.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs_config.hh"
#include "sim/sweep.hh"

namespace mmr
{
namespace
{

/** A small but non-trivial grid: four loads, two schedulers. */
std::vector<ExperimentConfig>
smallGrid()
{
    std::vector<ExperimentConfig> cfgs;
    for (const SchedulerKind sched :
         {SchedulerKind::BiasedPriority, SchedulerKind::FixedPriority}) {
        for (const double load : {0.3, 0.5, 0.7, 0.9}) {
            ExperimentConfig cfg;
            cfg.router.numPorts = 4;
            cfg.router.vcsPerPort = 32;
            cfg.router.candidates = 4;
            cfg.router.scheduler = sched;
            cfg.offeredLoad = load;
            cfg.warmupCycles = 500;
            cfg.measureCycles = 3000;
            cfg.seed = 42;
            cfgs.push_back(cfg);
        }
    }
    return cfgs;
}

TEST(Sweep, DefaultJobsIsAtLeastOne)
{
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(Sweep, EmptyGridReturnsEmpty)
{
    EXPECT_TRUE(runExperiments({}, 4).empty());
}

TEST(Sweep, ResultsComeBackInInputOrder)
{
    const auto cfgs = smallGrid();
    const auto results = runExperiments(cfgs, 4);
    ASSERT_EQ(results.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        EXPECT_DOUBLE_EQ(results[i].offeredLoad, cfgs[i].offeredLoad)
            << "point " << i;
}

TEST(Sweep, OnDoneFiresOncePerPoint)
{
    const auto cfgs = smallGrid();
    std::atomic<unsigned> calls{0};
    std::vector<bool> seen(cfgs.size(), false);
    runExperiments(cfgs, 3,
                   [&](std::size_t i, const ExperimentResult &) {
                       ++calls;
                       EXPECT_FALSE(seen[i]) << "duplicate completion";
                       seen[i] = true;
                   });
    EXPECT_EQ(calls.load(), cfgs.size());
}

/**
 * The tentpole property: running the same grid serially and on four
 * workers yields bit-identical per-point digests.  Parallelism may
 * only change which OS thread executes a point, never its result.
 */
TEST(Sweep, DigestsIdenticalSerialVsFourJobs)
{
    const auto cfgs = smallGrid();
    const auto serial = runExperiments(cfgs, 1);
    const auto parallel4 = runExperiments(cfgs, 4);
    ASSERT_EQ(serial.size(), parallel4.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(resultDigest(serial[i]), resultDigest(parallel4[i]))
            << "point " << i << " (load " << cfgs[i].offeredLoad
            << ", sched "
            << to_string(cfgs[i].router.scheduler) << ")";
    }
}

/**
 * Histograms, not just scalar digests: the per-stage and per-class
 * latency histograms harvested from a parallel sweep are bucket-for-
 * bucket identical to the serial run's, so percentile columns computed
 * from merged shards never depend on --jobs.
 */
TEST(Sweep, HistogramsIdenticalSerialVsFourJobs)
{
    const auto cfgs = smallGrid();
    const auto serial = runExperiments(cfgs, 1);
    const auto parallel4 = runExperiments(cfgs, 4);
    ASSERT_EQ(serial.size(), parallel4.size());
    LatencyHistogram mergedSerial, mergedParallel;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        for (std::size_t s = 0; s < kNumLatencyStages; ++s)
            EXPECT_TRUE(serial[i].stageHist[s].identical(
                parallel4[i].stageHist[s]))
                << "point " << i << " stage " << s;
        EXPECT_TRUE(serial[i].cbr.delayHist.identical(
            parallel4[i].cbr.delayHist))
            << "point " << i;
        mergedSerial.merge(serial[i].cbr.delayHist);
        mergedParallel.merge(parallel4[i].cbr.delayHist);
    }
    EXPECT_TRUE(mergedSerial.identical(mergedParallel));
    EXPECT_GT(mergedSerial.count(), 0u);
}

/**
 * Regression: points of one sweep sharing an observability output path
 * used to race (parallel) or silently overwrite each other (serial).
 * The runner renames nothing: it refuses the sweep, naming the path,
 * before any point runs, and points named by obsConfigWithSuffix each
 * write their own file.
 */
TEST(Sweep, SharedStatsPathIsRejected)
{
    const std::string base =
        ::testing::TempDir() + "sweep_stats.json";
    std::remove(base.c_str());
    auto cfgs = smallGrid();
    cfgs.resize(3);
    for (auto &cfg : cfgs)
        cfg.obs.statsJsonPath = base;
    for (const unsigned jobs : {1u, 3u}) {
        try {
            runExperiments(cfgs, jobs);
            ADD_FAILURE() << "a sweep whose points share " << base
                          << " ran with " << jobs << " jobs";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("'" + base + "'"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_FALSE(std::ifstream(base).good())
            << "a refused sweep must not run any point";
    }

    for (std::size_t i = 0; i < cfgs.size(); ++i)
        cfgs[i].obs = obsConfigWithSuffix(cfgs[i].obs, std::to_string(i));
    ASSERT_EQ(runExperiments(cfgs, 3).size(), 3u);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const std::string path = ::testing::TempDir() + "sweep_stats-" +
                                 std::to_string(i) + ".json";
        EXPECT_EQ(cfgs[i].obs.statsJsonPath, path);
        std::ifstream in(path);
        EXPECT_TRUE(in.good()) << "missing per-point file " << path;
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        EXPECT_NE(text.find("\"histograms\""), std::string::npos)
            << path;
        std::remove(path.c_str());
    }
}

/** A single-point "sweep" keeps the caller's exact output path. */
TEST(Sweep, SinglePointKeepsExactPath)
{
    const std::string base =
        ::testing::TempDir() + "sweep_single.json";
    auto cfgs = smallGrid();
    cfgs.resize(1);
    cfgs[0].obs.statsJsonPath = base;
    runExperiments(cfgs, 1);
    EXPECT_TRUE(std::ifstream(base).good());
    std::remove(base.c_str());
}

/** More workers than points is clamped, not an error. */
TEST(Sweep, MoreJobsThanPointsIsFine)
{
    auto cfgs = smallGrid();
    cfgs.resize(2);
    const auto results = runExperiments(cfgs, 16);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_GT(results[0].flitsDelivered, 0u);
    EXPECT_GT(results[1].flitsDelivered, 0u);
}

} // namespace
} // namespace mmr
