/**
 * @file
 * Figure 5 reproduction — "Delay and Jitter vs. Offered Load: Fixed
 * and Biased Priorities, Autonet, Perfect Switch": the four-way
 * algorithm comparison at 8 candidates per input port.
 *
 * Expected shape (§5.2): the biased scheme closely tracks the perfect
 * switch; fixed priorities are markedly worse; the Autonet (random
 * iterative matching, Anderson et al.) scheduler delivers reasonable
 * matchings but without QoS awareness its delay sits well above the
 * biased scheme.
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
            {"biased", SchedulerKind::BiasedPriority, 8},
            {"fixed", SchedulerKind::FixedPriority, 8},
            {"autonet", SchedulerKind::Autonet, 8},
            {"perfect", SchedulerKind::Perfect, 8},
        };

        std::printf("Figure 5: biased / fixed / Autonet(DEC) / perfect "
                    "switch at 8 candidates\n");
        const auto results = runSweep(series, loads, opts);

        std::printf("\nDelay (microseconds):\n");
        printFigure("fig5_delay_us", series, loads, results,
                    [](const ExperimentResult &r) {
                        return r.meanDelayUs;
                    });
        std::printf("\nJitter (router cycles):\n");
        printFigure("fig5_jitter_cycles", series, loads, results,
                    [](const ExperimentResult &r) {
                        return r.meanJitterCycles;
                    });
        std::printf("\nSwitch utilization:\n");
        printFigure("fig5_utilization", series, loads, results,
                    [](const ExperimentResult &r) {
                        return r.utilization;
                    },
                    3);

        // ---- shape checks -----------------------------------------
        int failures = 0;
        auto check = [&](bool ok, const std::string &what) {
            std::printf("shape check: %-58s %s\n", what.c_str(),
                        ok ? "PASS" : "FAIL");
            if (!ok)
                ++failures;
        };
        for (std::size_t li = 0; li < loads.size(); ++li) {
            const double b = results[0][li].meanDelayUs;
            const double f = results[1][li].meanDelayUs;
            const double a = results[2][li].meanDelayUs;
            const double p = results[3][li].meanDelayUs;
            if (loads[li] >= 0.5) {
                if (!(b <= f))
                    ++failures;
                if (!(b <= a))
                    ++failures;
            }
            if (!(p <= b + 1e-9))
                ++failures;
        }
        check(failures == 0,
              "perfect <= biased <= {fixed, autonet} on delay");

        // Biased tracks the perfect switch: within a small constant
        // factor at high load (paper: nearly coincident curves).
        const std::size_t last = loads.size() - 1;
        const double ratio = results[0][last].meanDelayUs /
                             std::max(1e-9, results[3][last].meanDelayUs);
        check(ratio < 3.0, "biased within 3x of perfect at top load");

        std::printf("figure 5 checks: %s\n",
                    failures == 0 ? "ALL PASS" : "FAILURES PRESENT");
        return failures == 0 ? 0 : 2;
    });
}
