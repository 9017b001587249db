/**
 * @file
 * Figure 3 reproduction — "Jitter vs. Offered Load, 1.24 Gb Link":
 * average jitter in router (flit) cycles for fixed vs biased priority
 * scheduling at 1, 2, 4 and 8 candidates per input port.
 *
 * Setup (§5): 8x8 router, 256 VCs/input port, 1.24 Gb/s links,
 * 128-bit flits, CBR connections from the paper's rate ladder on
 * random port pairs, statistics over ~100,000 flit cycles.
 *
 * Expected shape: biased priorities below fixed at every candidate
 * count, the gap widening with load; more candidates lower jitter.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mmr;
    using namespace mmr::bench;
    return guardedMain([&] {
        Cli cli;
        addSweepFlags(cli);
        addLoadsFlag(cli);
        addPercentilesFlag(cli);
        if (!cli.parse(argc, argv))
            return 0;
        const auto loads = loadsFromCli(cli);
        const auto opts = sweepOptions(cli);

        const std::vector<Series> series{
            {"biased_1c", SchedulerKind::BiasedPriority, 1},
            {"biased_2c", SchedulerKind::BiasedPriority, 2},
            {"biased_4c", SchedulerKind::BiasedPriority, 4},
            {"biased_8c", SchedulerKind::BiasedPriority, 8},
            {"fixed_1c", SchedulerKind::FixedPriority, 1},
            {"fixed_2c", SchedulerKind::FixedPriority, 2},
            {"fixed_4c", SchedulerKind::FixedPriority, 4},
            {"fixed_8c", SchedulerKind::FixedPriority, 8},
        };

        std::printf("Figure 3: jitter (router cycles) vs offered load, "
                    "fixed and biased priorities\n");
        const auto results = runSweep(series, loads, opts);

        printFigure("fig3_jitter_cycles", series, loads, results,
                    [](const ExperimentResult &r) {
                        return r.meanJitterCycles;
                    });
        if (cli.boolean("percentiles"))
            printPercentiles("fig3", series, loads, results);

        // Shape assertions from §5.2: biased <= fixed per candidate
        // count where the schemes diverge — "the differences are
        // particularly pronounced in the region just prior to
        // saturation"; at light load the curves coincide, so the
        // check starts at 50% and allows measurement noise.
        int violations = 0;
        for (std::size_t li = 0; li < loads.size(); ++li) {
            if (loads[li] < 0.5 || loads[li] > 0.9)
                continue;
            for (int c = 2; c < 4; ++c) { // 4C and 8C pairs
                const double biased =
                    results[c][li].meanJitterCycles;
                const double fixed = results[c + 4][li].meanJitterCycles;
                if (biased > 1.1 * fixed + 0.05) {
                    ++violations;
                    std::printf("shape violation: biased jitter %.3f > "
                                "fixed %.3f at load %.2f (%uC)\n",
                                biased, fixed, loads[li],
                                series[c].candidates);
                }
            }
        }
        std::printf("shape check (biased <= fixed, 4C/8C, mid loads): "
                    "%s\n", violations == 0 ? "PASS" : "FAIL");
        return violations == 0 ? 0 : 2;
    });
}
