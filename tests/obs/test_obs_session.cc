/**
 * @file
 * End-to-end tests of the observability session through the §5
 * experiment harness: the sampler/registry outputs must reproduce the
 * MetricsRecorder aggregates, traces must carry every event of the
 * flit lifecycle, same-seed runs must produce bit-identical trace/stats
 * files, bad trace windows must be rejected at flag parse, and per-run
 * output paths must not collide.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/cli.hh"
#include "harness/single_router.hh"
#include "obs/obs_config.hh"

namespace mmr
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing output file " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Events per "name/phase" in a recorder-written trace file. */
std::map<std::string, std::size_t>
eventCounts(const std::string &json)
{
    std::map<std::string, std::size_t> counts;
    const std::string key = "{\"name\":\"";
    for (std::size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at + 1)) {
        const std::size_t name = at + key.size();
        const std::size_t ph = json.find("\"ph\":\"", name) + 6;
        ++counts[json.substr(name, json.find('"', name) - name) + "/" +
                 json[ph]];
    }
    return counts;
}

/** obsConfigFromCli over @p args, as a front end would parse them. */
ObsConfig
configFromFlags(std::vector<const char *> args)
{
    Cli cli;
    addObsFlags(cli);
    args.insert(args.begin(), "obs_test");
    EXPECT_TRUE(cli.parse(static_cast<int>(args.size()),
                          const_cast<char **>(args.data())));
    return obsConfigFromCli(cli);
}

ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.router.numPorts = 4;
    cfg.router.vcsPerPort = 32;
    cfg.offeredLoad = 0.6;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 4000;
    cfg.seed = 7;
    return cfg;
}

TEST(ObsSession, StatsFileReproducesRecorderAggregates)
{
    const std::string dir = ::testing::TempDir();
    ExperimentConfig cfg = smallConfig();
    cfg.obs.statsJsonPath = dir + "obs_xcheck.json";
    cfg.obs.samplePeriod = 500;

    const ExperimentResult r = runSingleRouter(cfg);
    const std::string s = slurp(cfg.obs.statsJsonPath);

    // The harness registers its recorder aggregates as gauges; the
    // final registry dump must agree exactly with the returned result.
    const std::string flits =
        "\"harness.measured_flits\": {\"kind\": \"gauge\", \"value\": " +
        obs::formatNumber(static_cast<double>(r.flitsDelivered)) + "}";
    EXPECT_NE(s.find(flits), std::string::npos)
        << "wanted: " << flits << "\nin:\n" << s.substr(0, 2000);

    const std::string delay =
        "\"harness.mean_delay_cycles\": {\"kind\": \"gauge\", "
        "\"value\": " +
        obs::formatNumber(r.meanDelayCycles) + "}";
    EXPECT_NE(s.find(delay), std::string::npos) << "wanted: " << delay;

    // The sampled series rides in the same file.
    EXPECT_NE(s.find("\"period\": 500"), std::string::npos);
    EXPECT_NE(s.find("router0.flits.injected"), std::string::npos);
}

TEST(ObsSession, TraceCoversTheFlitLifecycle)
{
    const std::string dir = ::testing::TempDir();
    ExperimentConfig cfg = smallConfig();
    cfg.obs.tracePath = dir + "obs_lifecycle.json";

    runSingleRouter(cfg);

    // Flit lifecycle, scheduler grants and matching sizes, and
    // admission decisions all in one Perfetto-loadable file, with the
    // per-event counts of the two-recorder build this one replaced.
    const std::map<std::string, std::size_t> want = {
        {"inject/i", 12558},
        {"grant/i", 12557},
        {"xmit/i", 12554},
        {"credit_consume/i", 12554},
        {"sched.matching_size/C", 6000},
        {"admit_reject/i", 198},
        {"admit_cbr/i", 128},
        {"vc_alloc/i", 128},
    };
    const auto got = eventCounts(slurp(cfg.obs.tracePath));
    EXPECT_EQ(got, want);
    std::size_t total = 0;
    for (const auto &[key, n] : got)
        total += n;
    EXPECT_EQ(total, 56677u);
}

TEST(ObsSession, CategoryFilterNarrowsTheTrace)
{
    const std::string dir = ::testing::TempDir();
    ExperimentConfig cfg = smallConfig();
    cfg.obs.tracePath = dir + "obs_filtered.json";
    cfg.obs.traceCats = "admission,setup";

    runSingleRouter(cfg);
    const std::map<std::string, std::size_t> want = {
        {"admit_reject/i", 198},
        {"admit_cbr/i", 128},
        {"vc_alloc/i", 128},
    };
    EXPECT_EQ(eventCounts(slurp(cfg.obs.tracePath)), want)
        << "flit and scheduler events must be filtered out";
}

TEST(ObsSession, SameSeedRunsProduceBitIdenticalFiles)
{
    const std::string dir = ::testing::TempDir();

    ExperimentConfig a = smallConfig();
    a.obs.tracePath = dir + "obs_det_a.trace.json";
    a.obs.statsJsonPath = dir + "obs_det_a.stats.json";
    a.obs.samplePeriod = 500;
    runSingleRouter(a);

    ExperimentConfig b = smallConfig();
    b.obs.tracePath = dir + "obs_det_b.trace.json";
    b.obs.statsJsonPath = dir + "obs_det_b.stats.json";
    b.obs.samplePeriod = 500;
    runSingleRouter(b);

    EXPECT_EQ(slurp(a.obs.tracePath), slurp(b.obs.tracePath))
        << "trace files must be byte-identical for same-seed runs";
    EXPECT_EQ(slurp(a.obs.statsJsonPath), slurp(b.obs.statsJsonPath))
        << "stats files must be byte-identical for same-seed runs";
}

TEST(ObsSession, ResultCarriesThroughputProfile)
{
    ExperimentConfig cfg = smallConfig();
    const ExperimentResult r = runSingleRouter(cfg);
    EXPECT_GT(r.profile.cycles, 0u);
    EXPECT_GT(r.profile.events, 0u);
    EXPECT_GT(r.profile.wallSeconds, 0.0);
    EXPECT_GT(r.profile.cyclesPerSec(), 0.0);
    EXPECT_TRUE(r.profile.componentSeconds.empty())
        << "attribution stays off unless obs.profileComponents";
}

TEST(ObsSession, ComponentProfilingAttributesTime)
{
    ExperimentConfig cfg = smallConfig();
    cfg.obs.profileComponents = true;
    const ExperimentResult r = runSingleRouter(cfg);
    ASSERT_FALSE(r.profile.componentSeconds.empty());
    bool sawRouter = false;
    for (const auto &[name, secs] : r.profile.componentSeconds)
        sawRouter = sawRouter || name == "router";
    EXPECT_TRUE(sawRouter) << "the router must appear in attribution";
}

TEST(ObsFlags, BadTraceWindowIsAUserError)
{
    EXPECT_THROW(configFromFlags({"--trace-from=20", "--trace-to=10"}),
                 std::runtime_error);
    EXPECT_THROW(configFromFlags({"--trace-from=-5"}), std::runtime_error)
        << "a negative start would wrap to a huge cycle";

    const ObsConfig window =
        configFromFlags({"--trace-from=10", "--trace-to=20"});
    EXPECT_EQ(window.traceFrom, 10u);
    EXPECT_EQ(window.traceTo, 20u);
    const ObsConfig open = configFromFlags({"--trace-from=10"});
    EXPECT_EQ(open.traceTo, std::numeric_limits<Cycle>::max())
        << "--trace-to=0 leaves the window open";
}

TEST(ObsPath, SuffixInsertsBeforeTheExtension)
{
    EXPECT_EQ(obsPathWithSuffix("out/trace.json", "biased_2c-0.70"),
              "out/trace-biased_2c-0.70.json");
    EXPECT_EQ(obsPathWithSuffix("trace", "x"), "trace-x");
    EXPECT_EQ(obsPathWithSuffix("a.b/trace", "x"), "a.b/trace-x")
        << "a dot in a directory name is not an extension";
    EXPECT_EQ(obsPathWithSuffix("", "x"), "");
    EXPECT_EQ(obsPathWithSuffix("trace.json", ""), "trace.json");
}

} // namespace
} // namespace mmr
