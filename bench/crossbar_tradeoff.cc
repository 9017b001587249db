/**
 * @file
 * §3.3 ablation A1 — crossbar organization trade-off: silicon area
 * (crosspoint-bits) and arbitration depth for the multiplexed,
 * partially de-multiplexed and fully de-multiplexed organizations as
 * the virtual-channel count V grows.  Verifies the paper's V and V^2
 * area ratios and the §6 switch-setting timing budget (64-128 ns for
 * 1-2 Gb/s links with 128-bit flits).
 */

#include <cstdio>
#include <iostream>

#include "base/cli.hh"
#include "base/table.hh"
#include "bench_common.hh"
#include "router/crossbar.hh"

int
main(int argc, char **argv)
{
    using namespace mmr;
    using namespace mmr::bench;
    return guardedMain([&] {
        Cli cli;
        cli.flag("ports", "8", "router degree");
        cli.flag("gate_ns", "2.0", "gate delay for the arbiter tree");
        if (!cli.parse(argc, argv))
            return 0;
        const auto ports = cli.count<unsigned>("ports");
        const double gate_ns = cli.real("gate_ns");

        std::printf("Claim A1: crossbar organization cost, %ux%u router "
                    "(areas in crosspoint-bits)\n", ports, ports);

        Table t({"vcs", "area_mux", "area_partial", "area_full",
                 "ratio_partial", "ratio_full", "arb_levels_mux",
                 "arb_levels_demux"});
        int failures = 0;
        for (unsigned v : {16u, 64u, 256u, 1024u}) {
            CrossbarModel mux{CrossbarOrg::Multiplexed, ports, v, 128};
            CrossbarModel part{CrossbarOrg::PartiallyDemuxed, ports, v,
                               128};
            CrossbarModel full{CrossbarOrg::FullyDemuxed, ports, v, 128};
            t.addRow({std::to_string(v), Table::num(mux.areaUnits(), 0),
                      Table::num(part.areaUnits(), 0),
                      Table::num(full.areaUnits(), 0),
                      Table::num(part.areaRatioVsMultiplexed(), 0),
                      Table::num(full.areaRatioVsMultiplexed(), 0),
                      std::to_string(mux.arbitrationDelayUnits()),
                      std::to_string(full.arbitrationDelayUnits())});
            if (part.areaRatioVsMultiplexed() != static_cast<double>(v))
                ++failures;
            if (full.areaRatioVsMultiplexed() !=
                static_cast<double>(v) * v)
                ++failures;
        }
        t.print(std::cout);
        t.printCsv(std::cout, "crossbar_area");

        // §6 timing budget: switch settings at 64-128 ns.
        Table timing({"link_gbps", "flit_cycle_ns", "mux_ok",
                      "partial_ok", "full_ok"});
        for (double gbps : {1.0, 1.24, 2.0}) {
            const double cycle = flitCycleNs(128, gbps * kGbps);
            CrossbarModel mux{CrossbarOrg::Multiplexed, ports, 256, 128};
            CrossbarModel part{CrossbarOrg::PartiallyDemuxed, ports, 256,
                               128};
            CrossbarModel full{CrossbarOrg::FullyDemuxed, ports, 256,
                               128};
            timing.addRow(
                {Table::num(gbps, 2), Table::num(cycle, 1),
                 mux.meetsCycleTime(gate_ns, cycle) ? "yes" : "no",
                 part.meetsCycleTime(gate_ns, cycle) ? "yes" : "no",
                 full.meetsCycleTime(gate_ns, cycle) ? "yes" : "no"});
            if (!mux.meetsCycleTime(gate_ns, cycle))
                ++failures;
        }
        timing.print(std::cout);
        timing.printCsv(std::cout, "crossbar_timing");

        std::printf("shape check (area ratios V and V^2; multiplexed "
                    "meets 64-128ns): %s\n",
                    failures == 0 ? "PASS" : "FAIL");
        return failures == 0 ? 0 : 2;
    });
}
