/**
 * @file
 * Quickstart: build one MMR router, establish a handful of CBR
 * connections, push traffic through it, and print the paper's metrics
 * (delay, jitter, utilization).
 *
 * Run:  ./quickstart [--load=0.7] [--sched=biased] [--candidates=4]
 */

#include <cstdio>
#include <exception>
#include <iostream>

#include "base/cli.hh"
#include "base/table.hh"
#include "harness/single_router.hh"

int
main(int argc, char **argv)
{
    using namespace mmr;
    try {
        Cli cli;
        cli.flag("load", "0.7", "offered load as a fraction of 1.0");
        cli.flag("sched", "biased",
                 "scheduler: biased|fixed|autonet|islip|perfect");
        cli.flag("candidates", "4", "candidates per input port (1-8)");
        cli.flag("ports", "8", "router degree");
        cli.flag("vcs", "256", "virtual channels per input port");
        cli.flag("cycles", "100000", "measured flit cycles");
        cli.flag("seed", "42", "random seed");
        if (!cli.parse(argc, argv))
            return 0;

        ExperimentConfig cfg;
        cfg.offeredLoad = cli.real("load");
        cfg.router.scheduler = schedulerKindFromString(cli.str("sched"));
        cfg.router.candidates = cli.count<unsigned>("candidates");
        cfg.router.numPorts = cli.count<unsigned>("ports");
        cfg.router.vcsPerPort = cli.count<unsigned>("vcs");
        cfg.measureCycles = cli.count<Cycle>("cycles");
        cfg.seed = static_cast<std::uint64_t>(cli.integer("seed"));

        std::printf("MMR quickstart: %ux%u router, %u VCs/port, "
                    "%.2f Gb/s links, %u-bit flits (flit cycle %.1f ns)\n",
                    cfg.router.numPorts, cfg.router.numPorts,
                    cfg.router.vcsPerPort,
                    cfg.router.linkRateBps / kGbps, cfg.router.flitBits,
                    cfg.router.flitCycleNanos());
        std::printf("scheduler=%s candidates=%u offered load=%.0f%%\n\n",
                    to_string(cfg.router.scheduler).c_str(),
                    cfg.router.candidates, 100.0 * cfg.offeredLoad);

        const ExperimentResult r = runSingleRouter(cfg);

        Table t({"metric", "value"});
        t.addRow({"connections", std::to_string(r.connections)});
        t.addRow({"achieved load", Table::num(r.achievedLoad, 3)});
        t.addRow({"flits delivered", std::to_string(r.flitsDelivered)});
        t.addRow({"mean delay (cycles)", Table::num(r.meanDelayCycles)});
        t.addRow({"mean delay (us)", Table::num(r.meanDelayUs)});
        t.addRow({"mean jitter (cycles)",
                  Table::num(r.meanJitterCycles)});
        t.addRow({"p99 delay (cycles)", Table::num(r.p99DelayCycles)});
        t.addRow({"switch utilization", Table::num(r.utilization, 3)});
        t.print(std::cout);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
