/**
 * @file
 * mmr_sim — the general config-driven simulator front end.
 *
 * Exposes the full §2 design space from the command line, in two
 * modes:
 *
 *   --mode=router   the §5 single-router study with arbitrary knobs
 *                   (ports, VCs, K, candidates, scheduler, traffic
 *                   mix, late-frame aborts, automatic warm-up);
 *   --mode=network  an end-to-end network of MMRs (a kind:args
 *                   --topology spec, as topologyFromSpec reads it),
 *                   CBR load via EPB-established paths plus
 *                   best-effort background, optional link failure
 *                   injection mid-run.
 *
 * Examples:
 *   ./mmr_sim --mode=router --load=0.9 --sched=biased --candidates=8
 *   ./mmr_sim --mode=router --vbr=0.5 --be=0.2 --abort-late=true
 *   ./mmr_sim --mode=network --topology=mesh:4x4 --load=0.5 \
 *             --fail-link=5,6
 */

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <utility>

#include "base/cli.hh"
#include "base/table.hh"
#include "fault/recovery.hh"
#include "harness/network_experiment.hh"
#include "harness/single_router.hh"
#include "network/interface.hh"
#include "network/network.hh"
#include "obs/obs_config.hh"
#include "obs/profiler.hh"
#include "sim/kernel.hh"
#include "sim/sweep.hh"

namespace
{

using namespace mmr;

/** Write --profile-json and, when asked, print the profile summary. */
void
reportProfile(const Cli &cli, const SimProfile &prof)
{
    const std::string path = cli.str("profile-json");
    if (!path.empty()) {
        std::ofstream os(path);
        if (!os)
            mmr_fatal("cannot open profile output '", path, "'");
        writeProfileJson(os, prof);
    }
    if (cli.boolean("profile") || !path.empty())
        printProfile(std::cerr, prof);
}

/**
 * Parse --fail-link ("a,b") against @p topo before the run starts, so
 * a bad value is a user error instead of a mid-run assertion or a
 * failure that silently never happens.  Empty means no failure.
 */
std::optional<std::pair<NodeId, NodeId>>
parseFailLink(const std::string &spec, const Topology &topo)
{
    if (spec.empty())
        return std::nullopt;
    const std::size_t comma = spec.find(',');
    if (comma == std::string::npos)
        mmr_fatal("--fail-link=", spec, ": want two node ids 'a,b'");
    const std::string parts[2] = {spec.substr(0, comma),
                                  spec.substr(comma + 1)};
    NodeId ids[2];
    for (int i = 0; i < 2; ++i) {
        const std::string &p = parts[i];
        char *end = nullptr;
        const unsigned long v = std::strtoul(p.c_str(), &end, 10);
        if (p.empty() || !std::isdigit(static_cast<unsigned char>(p[0])) ||
            *end != '\0')
            mmr_fatal("--fail-link=", spec, ": want two node ids 'a,b'");
        if (v >= topo.numNodes())
            mmr_fatal("--fail-link=", spec, ": node ", v,
                      " is out of range (the topology has ",
                      topo.numNodes(), " nodes)");
        ids[i] = static_cast<NodeId>(v);
    }
    if (!topo.hasLink(ids[0], ids[1]))
        mmr_fatal("--fail-link=", spec, ": no link joins nodes ", ids[0],
                  " and ", ids[1]);
    return std::make_pair(ids[0], ids[1]);
}

/**
 * Several --load values: run the points through the sweep runner on
 * --jobs workers and print one row per load.  Every observability
 * output gets a per-load path suffix (the load as written), so no two
 * points share a file.
 */
int
runRouterSweep(ExperimentConfig base,
               const std::vector<std::string> &loads,
               const std::vector<double> &values, unsigned jobs)
{
    std::vector<ExperimentConfig> cfgs;
    cfgs.reserve(loads.size());
    for (std::size_t i = 0; i < loads.size(); ++i) {
        ExperimentConfig cfg = base;
        cfg.offeredLoad = values[i];
        cfg.obs = obsConfigWithSuffix(cfg.obs, loads[i]);
        cfgs.push_back(std::move(cfg));
    }
    const auto results = runExperiments(
        cfgs, jobs, [&](std::size_t i, const ExperimentResult &r) {
            std::fprintf(stderr, "  load %s done (%.0f cycles/s)\n",
                         loads[i].c_str(), r.profile.cyclesPerSec());
        });

    Table t({"offered_load", "achieved", "flits", "mean_delay_cyc",
             "p99_cyc", "jitter_cyc", "utilization", "rejects"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ExperimentResult &r = results[i];
        t.addRow({Table::num(r.offeredLoad, 2),
                  Table::num(r.achievedLoad, 3),
                  std::to_string(r.flitsDelivered),
                  Table::num(r.meanDelayCycles),
                  Table::num(r.p99DelayCycles, 1),
                  Table::num(r.meanJitterCycles),
                  Table::num(r.utilization, 3),
                  std::to_string(r.injectionRejects)});
    }
    t.print(std::cout);
    t.printCsv(std::cout, "load_sweep");
    return 0;
}

int
runRouterMode(const Cli &cli)
{
    ExperimentConfig cfg;
    cfg.router.numPorts = cli.count<unsigned>("ports");
    cfg.router.vcsPerPort = cli.count<unsigned>("vcs");
    cfg.router.linkRateBps = cli.real("gbps") * kGbps;
    cfg.router.flitBits = cli.count<unsigned>("flit");
    cfg.router.roundFactorK = cli.count<unsigned>("k");
    cfg.router.candidates = cli.count<unsigned>("candidates");
    cfg.router.scheduler = schedulerKindFromString(cli.str("sched"));
    cfg.router.concurrencyFactor = cli.real("concurrency");
    cfg.router.bestEffortReserve = cli.real("be-reserve");
    cfg.measureCycles = cli.count<Cycle>("cycles");
    cfg.warmupCycles = cli.count<Cycle>("warmup");
    cfg.autoWarmup = cli.boolean("auto-warmup");
    cfg.seed = static_cast<std::uint64_t>(cli.integer("seed"));

    const double vbr = cli.real("vbr");
    const double be = cli.real("be");
    if (vbr + be > 1.0)
        mmr_fatal("vbr + be shares exceed 1.0");
    cfg.mix.cbrShare = 1.0 - vbr - be;
    cfg.mix.vbrShare = vbr;
    cfg.mix.beShare = be;
    cfg.mix.abortLateFrames = cli.boolean("abort-late");
    cfg.mix.vbrProfile.framesPerSecond = cli.real("fps");
    cfg.mix.vbrProfile.peakToMean = cli.real("peak");
    cfg.cbrDelayBudget = cli.count<Cycle>("cbr-budget");
    cfg.vbrDelayBudget = cli.count<Cycle>("vbr-budget");
    cfg.forcePanicAt = cli.count<Cycle>("panic-at");
    cfg.obs = obsConfigFromCli(cli);

    const auto loads = cli.list("load");
    const auto jobsFlag = cli.count<unsigned>("jobs");
    const unsigned jobs = jobsFlag == 0 ? defaultJobs() : jobsFlag;
    if (loads.size() > 1)
        return runRouterSweep(cfg, loads, cli.reals("load"), jobs);
    cfg.offeredLoad = cli.real("load");

    const ExperimentResult r = runSingleRouter(cfg);
    reportProfile(cli, r.profile);
    const double ns = cfg.router.flitCycleNanos();

    Table t({"metric", "value"});
    t.addRow({"scheduler", to_string(cfg.router.scheduler)});
    t.addRow({"candidates", std::to_string(cfg.router.candidates)});
    t.addRow({"connections", std::to_string(r.connections)});
    t.addRow({"achieved load", Table::num(r.achievedLoad, 3)});
    t.addRow({"warm-up used (cycles)", std::to_string(r.warmupUsed)});
    t.addRow({"flits delivered", std::to_string(r.flitsDelivered)});
    t.addRow({"mean delay (cycles / us)",
              Table::num(r.meanDelayCycles) + " / " +
                  Table::num(r.meanDelayUs)});
    t.addRow({"p99 delay (cycles)", Table::num(r.p99DelayCycles, 1)});
    t.addRow({"mean jitter (cycles)", Table::num(r.meanJitterCycles)});
    t.addRow({"switch utilization", Table::num(r.utilization, 3)});
    if (r.cbr.flits)
        t.addRow({"CBR delay (us)",
                  Table::num(r.cbr.delayCycles.mean() * ns / 1000.0)});
    if (r.vbr.flits) {
        t.addRow({"VBR delay (us)",
                  Table::num(r.vbr.delayCycles.mean() * ns / 1000.0)});
        t.addRow({"VBR deadline miss",
                  Table::num(100.0 * r.vbr.deadlineMissRate(), 2) +
                      "%"});
        t.addRow({"aborted flits", std::to_string(r.abortedFlits)});
    }
    if (r.bestEffort.flits)
        t.addRow({"best-effort delay (us)",
                  Table::num(r.bestEffort.delayCycles.mean() * ns /
                             1000.0)});
    t.addRow({"injection rejects", std::to_string(r.injectionRejects)});
    t.print(std::cout);

    if (cli.boolean("percentiles")) {
        Table pt({"stage_or_class", "count", "p50", "p90", "p99",
                  "p999", "max"});
        const auto row = [&](const std::string &name,
                             const LatencySummary &s) {
            if (s.count == 0)
                return;
            pt.addRow({name, std::to_string(s.count),
                       Table::num(s.p50, 0), Table::num(s.p90, 0),
                       Table::num(s.p99, 0), Table::num(s.p999, 0),
                       Table::num(s.maxCycles, 0)});
        };
        for (std::size_t s = 0; s < kNumLatencyStages; ++s)
            row(std::string("stage:") +
                    to_string(static_cast<LatencyStage>(s)),
                r.stageLatency[s]);
        row("class:cbr", r.cbr.latency);
        row("class:vbr", r.vbr.latency);
        row("class:best_effort", r.bestEffort.latency);
        pt.print(std::cout);
        pt.printCsv(std::cout, "latency_percentiles");

        if (cfg.cbrDelayBudget || cfg.vbrDelayBudget) {
            Table qt({"class", "budget_cyc", "flits", "violations",
                      "violation_rate", "worst_excess_cyc"});
            const auto qrow = [&](const char *name, Cycle budget,
                                  const QosCounters &q) {
                if (budget == 0)
                    return;
                qt.addRow({name, Table::num(budget, 0),
                           std::to_string(q.flits),
                           std::to_string(q.violations),
                           Table::num(q.violationRate(), 4),
                           Table::num(q.worstExcessCycles, 0)});
            };
            qrow("cbr", cfg.cbrDelayBudget, r.cbr.qos);
            qrow("vbr", cfg.vbrDelayBudget, r.vbr.qos);
            qt.print(std::cout);
            qt.printCsv(std::cout, "qos_deadlines");
        }
    }
    return 0;
}

int
runNetworkMode(const Cli &cli)
{
    const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
    Rng rng(seed);
    const Topology topo = topologyFromSpec(cli.str("topology"), seed);
    const auto fail = parseFailLink(cli.str("fail-link"), topo);

    NetworkConfig ncfg;
    ncfg.router.vcsPerPort = cli.count<unsigned>("vcs");
    ncfg.router.candidates = cli.count<unsigned>("candidates");
    ncfg.router.scheduler = schedulerKindFromString(cli.str("sched"));
    ncfg.seed = seed;
    Network net(topo, ncfg);
    Kernel kernel;
    kernel.add(&net, "network");

    const ObsConfig ocfg = obsConfigFromCli(cli);
    ObsSession obs(ocfg);
    if (ocfg.enabled()) {
        net.registerStats(obs.registry(),
                          ocfg.perVcStats
                              ? MmrRouter::StatsDetail::PerVc
                              : MmrRouter::StatsDetail::Aggregate);
        obs.attach(kernel);
    }

    // Streams cut by --fail-link re-run EPB inside the failure.
    RecoveryConfig rcfg;
    rcfg.zeroTime = true; // no per-cycle work: not on the kernel
    RecoveryManager recovery(net, rcfg, seed);
    std::vector<std::unique_ptr<NetworkInterface>> hosts;
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        hosts.push_back(
            std::make_unique<NetworkInterface>(net, n, seed + n));
        hosts.back()->attachRecovery(&recovery);
    }

    // CBR load per host link plus light best-effort background.
    const double load = cli.real("load");
    const double link = ncfg.router.linkRateBps;
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        double local = 0.0;
        unsigned failures = 0;
        while (local < load * link && failures < 32) {
            NodeId dst;
            do {
                dst = static_cast<NodeId>(rng.below(topo.numNodes()));
            } while (dst == n);
            const double rate = rng.pick(paperRateLadder());
            if (local + rate > load * link * 1.05) {
                ++failures;
                continue;
            }
            if (hosts[n]->openCbrStream(dst, rate)) {
                local += rate;
                failures = 0;
            } else {
                ++failures;
            }
        }
        hosts[n]->addBestEffortFlow((n + 1) % topo.numNodes(),
                                    2 * kMbps);
    }

    const auto cycles = cli.count<Cycle>("cycles");
    net.endToEnd().startMeasurement(cycles / 10);

    // Optional mid-run link failure.
    const Cycle fail_at = cycles / 2;

    const auto wall_start = std::chrono::steady_clock::now();
    for (Cycle t = 0; t < cycles; ++t) {
        if (fail && t == fail_at) {
            const auto [a, b] = *fail;
            if (net.failLink(a, b))
                std::printf("cycle %llu: failed link %u-%u\n",
                            static_cast<unsigned long long>(t), a, b);
        }
        for (auto &h : hosts)
            h->tick(kernel.now());
        kernel.step();
    }
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    obs.finish(kernel.now());
    reportProfile(cli, collectProfile(kernel, wall_seconds,
                                      net.flitsDelivered() +
                                          net.datagramsSent()));

    unsigned streams = 0, lost = 0, reest = 0;
    for (auto &h : hosts) {
        streams += h->establishedStreams();
        lost += h->lostStreams();
        reest += h->reestablishedStreams();
    }
    Table t({"metric", "value"});
    t.addRow({"switches / links", std::to_string(topo.numNodes()) +
                                      " / " +
                                      std::to_string(topo.numLinks())});
    t.addRow({"streams (alive/lost/reestablished)",
              std::to_string(streams) + "/" + std::to_string(lost) +
                  "/" + std::to_string(reest)});
    t.addRow({"stream flits delivered",
              std::to_string(net.flitsDelivered() -
                             net.datagramsDelivered())});
    t.addRow({"datagrams delivered",
              std::to_string(net.datagramsDelivered()) + "/" +
                  std::to_string(net.datagramsSent())});
    t.addRow({"mean e2e delay (cycles)",
              Table::num(net.endToEnd().meanDelayCycles(), 2)});
    t.addRow({"mean e2e jitter (cycles)",
              Table::num(net.endToEnd().meanJitterCycles(), 3)});
    t.addRow({"flits lost to failures",
              std::to_string(net.flitsLostToFailures())});
    t.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Cli cli;
        cli.flag("mode", "router", "router | network");
        // shared
        cli.flag("sched", "biased",
                 "biased|fixed|age|output-driven|autonet|islip|perfect");
        cli.flag("candidates", "8", "candidates per input port");
        cli.flag("vcs", "256", "virtual channels per port");
        cli.flag("load", "0.7",
                 "offered load fraction; a comma-separated list runs "
                 "a sweep (see --jobs)");
        cli.flag("jobs", "1",
                 "worker threads for a --load sweep "
                 "(0 = hardware concurrency)");
        cli.flag("cycles", "100000", "measured cycles");
        cli.flag("seed", "42", "random seed");
        // router mode
        cli.flag("ports", "8", "router degree");
        cli.flag("gbps", "1.24", "link rate (Gb/s)");
        cli.flag("flit", "128", "flit size (bits)");
        cli.flag("k", "2", "round factor K");
        cli.flag("warmup", "20000", "fixed warm-up cycles");
        cli.flag("auto-warmup", "false",
                 "size the warm-up by steady-state detection");
        cli.flag("vbr", "0", "VBR share of the load");
        cli.flag("be", "0", "best-effort share of the load");
        cli.flag("fps", "500", "VBR frame rate");
        cli.flag("peak", "3.0", "VBR peak/mean ratio");
        cli.flag("concurrency", "2.0", "VBR concurrency factor");
        cli.flag("be-reserve", "0", "round share reserved for BE");
        cli.flag("abort-late", "false", "abort late video frames");
        cli.flag("percentiles", "false",
                 "print per-stage / per-class latency percentile and "
                 "QoS deadline tables (router mode)");
        cli.flag("cbr-budget", "0",
                 "CBR delay budget in flit cycles (0 = off)");
        cli.flag("vbr-budget", "0",
                 "VBR delay budget in flit cycles (0 = off)");
        cli.flag("panic-at", "0",
                 "force an invariant violation at this cycle to "
                 "exercise the flight-recorder crash dump (0 = off)");
        // network mode
        cli.flag("topology", "mesh:3x3",
                 "mesh:WxH | torus:WxH | ring:N | star:N | "
                 "irregular:N:EXTRA:MAXDEG | min:RADIX:STAGES | "
                 "fattree:RADIX | leafspine:SPINES:LEAVES");
        cli.flag("fail-link", "", "a,b: fail this link mid-run");
        // observability
        addObsFlags(cli);
        cli.flag("profile-json", "",
                 "write the run's throughput profile as JSON");
        if (!cli.parse(argc, argv))
            return 0;

        const std::string mode = cli.str("mode");
        if (mode == "router")
            return runRouterMode(cli);
        if (mode == "network")
            return runNetworkMode(cli);
        mmr_fatal("unknown mode '", mode, "' (want router|network)");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
