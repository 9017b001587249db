/**
 * @file
 * §4.4 ablation — input-driven vs output-driven switch scheduling.
 * The paper: "For fully de-multiplexed switches output-driven schemes
 * provide superior performance.  However, for a large number of
 * virtual channels, a fully de-multiplexed crossbar is infeasible.
 * For multiplexed crossbars the choice between input-driven and
 * output-driven scheduling is not clear."  The MMR chose
 * input-driven; this bench puts numbers on that choice for the
 * multiplexed organization: both schemes see the same per-input
 * candidate sets (that is what a multiplexed crossbar's link
 * schedulers expose), arbitrated from the input side (tiered maximum
 * matching) or from the output side (grant/accept iterations).
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
        if (!cli.parse(argc, argv))
            return 0;
        const auto loads = loadsFromCli(cli);
        const auto opts = sweepOptions(cli);

        const std::vector<Series> series{
            {"input_4c", SchedulerKind::BiasedPriority, 4},
            {"output_4c", SchedulerKind::OutputDriven, 4},
            {"input_8c", SchedulerKind::BiasedPriority, 8},
            {"output_8c", SchedulerKind::OutputDriven, 8},
        };

        std::printf("Input-driven vs output-driven scheduling "
                    "(multiplexed crossbar, biased priorities)\n");
        const auto results = runSweep(series, loads, opts);

        std::printf("\nDelay (microseconds):\n");
        printFigure("io_driven_delay_us", series, loads, results,
                    [](const ExperimentResult &r) {
                        return r.meanDelayUs;
                    });
        std::printf("\nJitter (router cycles):\n");
        printFigure("io_driven_jitter", series, loads, results,
                    [](const ExperimentResult &r) {
                        return r.meanJitterCycles;
                    });

        // Both schemes must carry the offered load below saturation;
        // neither should be an order of magnitude off the other —
        // quantifying the paper's "not clear" verdict.
        int failures = 0;
        for (std::size_t li = 0; li < loads.size(); ++li) {
            if (loads[li] > 0.9)
                continue;
            for (int s = 0; s < 4; ++s)
                if (results[s][li].utilization + 0.03 <
                    results[s][li].achievedLoad)
                    ++failures;
        }
        std::printf("shape check (both schemes carry the load below "
                    "saturation): %s\n",
                    failures == 0 ? "PASS" : "FAIL");
        return failures == 0 ? 0 : 2;
    });
}
