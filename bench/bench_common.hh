/**
 * @file
 * Shared infrastructure for the figure-reproduction benches: the §5
 * experiment grid (offered-load sweeps over scheduler configurations)
 * and uniform table/CSV output so each binary prints exactly the
 * series the paper plots.
 */

#ifndef MMR_BENCH_BENCH_COMMON_HH
#define MMR_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "base/cli.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "harness/single_router.hh"
#include "sim/sweep.hh"

namespace mmr::bench
{

/** The offered-load grid used by Figures 3-5. */
inline std::vector<double>
defaultLoads()
{
    return {0.10, 0.30, 0.50, 0.70, 0.80, 0.90, 0.95};
}

/** One curve of a paper figure. */
struct Series
{
    std::string label;
    SchedulerKind scheduler;
    unsigned candidates;
};

struct SweepOptions
{
    Cycle warmupCycles = 20000;
    Cycle measureCycles = 100000;
    std::uint64_t seed = 42;
    WorkloadMix mix;
    /** Shared observability outputs; each run of a sweep rewrites the
     * file paths with a "<label>-<load>" suffix so points do not
     * clobber each other. */
    ObsConfig obs;
    /** Print cycles/sec + events/sec per point to stderr. */
    bool printThroughput = false;
    /** Append per-stage / per-class percentile blocks (--percentiles;
     * off by default so golden CSV captures stay byte-identical). */
    bool percentiles = false;
    /** Worker threads for the points of one sweep (sim/sweep.hh);
     * 1 = serial.  Results and digests are identical either way. */
    unsigned jobs = 1;
};

/** Per-run observability config: suffix every output path. */
inline ObsConfig
obsForRun(const ObsConfig &shared, const std::string &label, double load)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", load);
    return obsConfigWithSuffix(shared, label + "-" + buf);
}

/** Run one series over the load grid, on opts.jobs worker threads. */
inline std::vector<ExperimentResult>
runSweep(const Series &series, const std::vector<double> &loads,
         const SweepOptions &opts)
{
    std::vector<ExperimentConfig> cfgs;
    cfgs.reserve(loads.size());
    for (double load : loads) {
        ExperimentConfig cfg;
        cfg.router.scheduler = series.scheduler;
        cfg.router.candidates = series.candidates;
        cfg.offeredLoad = load;
        cfg.warmupCycles = opts.warmupCycles;
        cfg.measureCycles = opts.measureCycles;
        cfg.seed = opts.seed;
        cfg.mix = opts.mix;
        cfg.obs = obsForRun(opts.obs, series.label, load);
        cfgs.push_back(std::move(cfg));
    }
    const auto progress = [&](std::size_t i,
                              const ExperimentResult &r) {
        if (opts.printThroughput) {
            std::fprintf(stderr,
                         "  %-16s load %.2f done (%.0f cycles/s, "
                         "%.0f events/s)\n",
                         series.label.c_str(), loads[i],
                         r.profile.cyclesPerSec(),
                         r.profile.eventsPerSec());
        } else {
            std::fprintf(stderr, "  %-16s load %.2f done\n",
                         series.label.c_str(), loads[i]);
        }
    };
    return runExperiments(cfgs, opts.jobs, progress);
}

/**
 * Emit one table + CSV block: rows = loads, one column per series,
 * cell = metric(result).
 */
inline void
printFigure(const std::string &name,
            const std::vector<Series> &series,
            const std::vector<double> &loads,
            const std::vector<std::vector<ExperimentResult>> &results,
            const std::function<double(const ExperimentResult &)> &metric,
            int precision = 4)
{
    std::vector<std::string> headers{"offered_load"};
    for (const Series &s : series)
        headers.push_back(s.label);
    Table t(std::move(headers));
    for (std::size_t li = 0; li < loads.size(); ++li) {
        std::vector<std::string> row{Table::num(loads[li], 2)};
        for (std::size_t si = 0; si < series.size(); ++si)
            row.push_back(Table::num(metric(results[si][li]), precision));
        t.addRow(std::move(row));
    }
    t.print(std::cout);
    t.printCsv(std::cout, name);
    t.printJson(std::cout, name);
}

/**
 * Percentile companions to a figure: total-delay p50/p90/p99/p99.9
 * blocks (columns = series) plus a per-stage p99 block per latency
 * stage.  Gated behind --percentiles by the callers so the default
 * output — and therefore the golden-file captures — never changes.
 */
inline void
printPercentiles(
    const std::string &name, const std::vector<Series> &series,
    const std::vector<double> &loads,
    const std::vector<std::vector<ExperimentResult>> &results)
{
    const std::pair<const char *, Cycle LatencySummary::*> pcts[] = {
        {"p50", &LatencySummary::p50},
        {"p90", &LatencySummary::p90},
        {"p99", &LatencySummary::p99},
        {"p999", &LatencySummary::p999},
    };
    for (const auto &[key, field] : pcts) {
        printFigure(
            name + "_delay_" + key, series, loads, results,
            [field](const ExperimentResult &r) {
                LatencyHistogram all = r.cbr.delayHist;
                all.merge(r.vbr.delayHist);
                all.merge(r.bestEffort.delayHist);
                return static_cast<double>(all.summarize().*field);
            },
            0);
    }
    for (std::size_t s = 0; s < kNumLatencyStages; ++s) {
        if (results.empty() || results[0].empty() ||
            results[0][0].stageLatency[s].count == 0)
            continue; // stage never fed (LinkTransit, single router)
        printFigure(
            name + "_stage_" +
                to_string(static_cast<LatencyStage>(s)) + "_p99",
            series, loads, results,
            [s](const ExperimentResult &r) {
                return static_cast<double>(r.stageLatency[s].p99);
            },
            0);
    }
}

/** Standard sweep flags shared by the figure benches. */
inline void
addSweepFlags(Cli &cli)
{
    cli.flag("measure", "100000", "measured flit cycles per point");
    cli.flag("warmup", "20000", "warm-up flit cycles per point");
    cli.flag("seed", "42", "workload seed");
    cli.flag("loads", "", "comma-separated loads (default: paper grid)");
    cli.flag("throughput", "0",
             "print simulator cycles/sec + events/sec per point");
    cli.flag("jobs", "1",
             "worker threads per sweep (0 = hardware concurrency)");
    cli.flag("percentiles", "0",
             "append per-stage / per-class latency percentile blocks "
             "(p50/p90/p99/p99.9)");
    addObsFlags(cli);
}

inline SweepOptions
sweepOptions(const Cli &cli)
{
    SweepOptions o;
    o.measureCycles = static_cast<Cycle>(cli.integer("measure"));
    o.warmupCycles = static_cast<Cycle>(cli.integer("warmup"));
    o.seed = static_cast<std::uint64_t>(cli.integer("seed"));
    o.obs = obsConfigFromCli(cli);
    o.printThroughput = cli.boolean("throughput") ||
                        o.obs.profileComponents;
    o.percentiles = cli.boolean("percentiles");
    const long jobs = cli.integer("jobs");
    o.jobs = jobs == 0 ? defaultJobs()
                       : static_cast<unsigned>(jobs < 1 ? 1 : jobs);
    return o;
}

inline std::vector<double>
loadsFromCli(const Cli &cli)
{
    const std::vector<double> loads = cli.reals("loads");
    return loads.empty() ? defaultLoads() : loads;
}

/** --shards as a shard count: a value below 1 or above UINT32_MAX is
 * a user error, refused before any network is built. */
inline unsigned
shardsFromCli(const Cli &cli)
{
    const std::int64_t shards = cli.integer("shards");
    constexpr std::uint32_t most = std::numeric_limits<std::uint32_t>::max();
    if (shards < 1 || shards > std::int64_t{most})
        mmr_fatal("flag --shards must be in [1, ", most, "], got ", shards);
    return static_cast<unsigned>(shards);
}

/** main() wrapper: converts mmr_fatal into a clean error exit. */
inline int
guardedMain(const std::function<int()> &body)
{
    try {
        return body();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}

} // namespace mmr::bench

#endif // MMR_BENCH_BENCH_COMMON_HH
