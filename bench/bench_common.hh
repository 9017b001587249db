/**
 * @file
 * Shared infrastructure for the single-router benches: each bench
 * hands its whole grid of labelled points (a §5 figure is series x
 * offered loads) to runGrid, the one place the sweep flags reach a
 * point, and prints uniform table/CSV output so each binary prints
 * exactly the series the paper plots.
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
#include <utility>
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
    /** Shared observability outputs; runGrid suffixes every file path
     * with the point's label so points do not clobber each other. */
    ObsConfig obs;
    /** Print cycles/sec + events/sec per point to stderr. */
    bool printThroughput = false;
    /** Worker threads for the points of the grid (sim/sweep.hh);
     * 1 = serial.  Results and digests are identical either way. */
    unsigned jobs = 1;
};

/** One point of a bench's grid: the label names it on the progress
 * line and suffixes its output paths, so it must be unique. */
struct Point
{
    std::string label;
    ExperimentConfig cfg;
};

/**
 * Run every point of a grid, in one runExperiments call on opts.jobs
 * workers, with the sweep's warm-up, measure and seed; results come
 * back in point order.  A bad point is refused before any point runs.
 */
inline std::vector<ExperimentResult>
runGrid(std::vector<Point> points, const SweepOptions &opts)
{
    std::vector<ExperimentConfig> cfgs;
    cfgs.reserve(points.size());
    for (Point &p : points) {
        p.cfg.warmupCycles = opts.warmupCycles;
        p.cfg.measureCycles = opts.measureCycles;
        p.cfg.seed = opts.seed;
        p.cfg.obs = obsConfigWithSuffix(opts.obs, p.label);
        cfgs.push_back(std::move(p.cfg));
    }
    const auto progress = [&](std::size_t i,
                              const ExperimentResult &r) {
        const char *label = points[i].label.c_str();
        if (opts.printThroughput)
            std::fprintf(stderr,
                         "  %-20s done (%.0f cycles/s, %.0f events/s)\n",
                         label, r.profile.cyclesPerSec(),
                         r.profile.eventsPerSec());
        else
            std::fprintf(stderr, "  %-20s done\n", label);
    };
    return runExperiments(cfgs, opts.jobs, progress);
}

/**
 * Run every series over the load grid as one grid, each point
 * @p base with the series' scheduler and candidates at that load,
 * labelled "<series>-<load>".  Results are indexed [series][load].
 */
inline std::vector<std::vector<ExperimentResult>>
runSweep(const std::vector<Series> &series,
         const std::vector<double> &loads, const SweepOptions &opts,
         const ExperimentConfig &base = {})
{
    std::vector<Point> points;
    points.reserve(series.size() * loads.size());
    for (const Series &s : series) {
        for (double load : loads) {
            char suffix[32];
            std::snprintf(suffix, sizeof(suffix), "-%.2f", load);
            Point p{s.label + suffix, base};
            p.cfg.router.scheduler = s.scheduler;
            p.cfg.router.candidates = s.candidates;
            p.cfg.offeredLoad = load;
            points.push_back(std::move(p));
        }
    }
    std::vector<ExperimentResult> flat =
        runGrid(std::move(points), opts);
    std::vector<std::vector<ExperimentResult>> results(series.size());
    for (std::size_t si = 0; si < series.size(); ++si)
        for (std::size_t li = 0; li < loads.size(); ++li)
            results[si].push_back(
                std::move(flat[si * loads.size() + li]));
    return results;
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

/** The sweep flags every single-router bench reads (runGrid). */
inline void
addSweepFlags(Cli &cli)
{
    cli.flag("measure", "100000", "measured flit cycles per point");
    cli.flag("warmup", "20000", "warm-up flit cycles per point");
    cli.flag("seed", "42", "workload seed");
    cli.flag("throughput", "0",
             "print simulator cycles/sec + events/sec per point");
    cli.flag("jobs", "1",
             "worker threads per sweep (0 = hardware concurrency)");
    addObsFlags(cli);
}

inline SweepOptions
sweepOptions(const Cli &cli)
{
    SweepOptions o;
    o.measureCycles = cli.count<Cycle>("measure");
    o.warmupCycles = cli.count<Cycle>("warmup");
    o.seed = static_cast<std::uint64_t>(cli.integer("seed"));
    o.obs = obsConfigFromCli(cli);
    o.printThroughput = cli.boolean("throughput") ||
                        o.obs.profileComponents;
    const auto jobs = cli.count<unsigned>("jobs");
    o.jobs = jobs == 0 ? defaultJobs() : jobs;
    return o;
}

/** --loads, for the benches that sweep offered load. */
inline void
addLoadsFlag(Cli &cli)
{
    cli.flag("loads", "", "comma-separated loads (default: paper grid)");
}

inline std::vector<double>
loadsFromCli(const Cli &cli)
{
    const std::vector<double> loads = cli.reals("loads");
    return loads.empty() ? defaultLoads() : loads;
}

/** --percentiles, for the benches that print percentile blocks. */
inline void
addPercentilesFlag(Cli &cli)
{
    cli.flag("percentiles", "0",
             "append per-stage / per-class latency percentile blocks "
             "(p50/p90/p99/p99.9)");
}

/** --shards as a shard count: a value below 1 or above UINT32_MAX is
 * a user error, refused before any network is built. */
inline unsigned
shardsFromCli(const Cli &cli)
{
    const auto shards = cli.count<std::uint32_t>("shards");
    if (shards < 1)
        mmr_fatal("flag --shards must be in [1, ",
                  std::numeric_limits<std::uint32_t>::max(), "], got 0");
    return shards;
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
