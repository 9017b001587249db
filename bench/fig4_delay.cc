/**
 * @file
 * Figure 4 reproduction — "Delay vs. Offered Load, 1.24 Gb Link":
 * average switch delay in microseconds for fixed vs biased priority
 * scheduling at 1, 2, 4 and 8 candidates per input port, plus the
 * §5.2 spot checks:
 *
 *  - 2 candidates at 70% load: biased well under a microsecond while
 *    fixed sits in the microseconds (paper: 0.82 us vs ~5 us);
 *  - 8 candidates: biased delays in the sub-microsecond range across
 *    loads (paper: 0.4-0.6 us) against 1-2 us for fixed;
 *  - no saturation of the 8-candidate configuration before 95% load.
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

        std::printf("Figure 4: delay (microseconds) vs offered load, "
                    "fixed and biased priorities\n");
        const auto results = runSweep(series, loads, opts);

        printFigure("fig4_delay_us", series, loads, results,
                    [](const ExperimentResult &r) {
                        return r.meanDelayUs;
                    });
        if (cli.boolean("percentiles"))
            printPercentiles("fig4", series, loads, results);

        // ---- §5.2 spot checks -------------------------------------
        auto at_load = [&](double want) -> std::size_t {
            for (std::size_t i = 0; i < loads.size(); ++i)
                if (std::abs(loads[i] - want) < 1e-9)
                    return i;
            return loads.size();
        };

        int failures = 0;
        auto check = [&](bool ok, const std::string &what) {
            std::printf("spot check: %-58s %s\n", what.c_str(),
                        ok ? "PASS" : "FAIL");
            if (!ok)
                ++failures;
        };

        const std::size_t l70 = at_load(0.70);
        if (l70 < loads.size()) {
            const double b2 = results[1][l70].meanDelayUs;
            const double f2 = results[5][l70].meanDelayUs;
            check(b2 < 1.5, "2C biased @70%: sub-1.5us (paper 0.82us)");
            check(f2 > 2.0 * b2,
                  "2C @70%: fixed at least 2x biased (paper ~6x)");
        }
        const std::size_t l95 = at_load(0.95);
        if (l95 < loads.size()) {
            const double b8 = results[3][l95].meanDelayUs;
            check(b8 < 1.5,
                  "8C biased stays sub-1.5us to 95% (paper 0.4-0.6us)");
            check(results[3][l95].utilization > 0.85,
                  "8C biased carries ~95% load (no early saturation)");
        }
        for (std::size_t li = 0; li < loads.size(); ++li) {
            if (loads[li] < 0.3 || loads[li] > 0.9)
                continue;
            if (results[3][li].meanDelayUs >
                results[7][li].meanDelayUs) {
                ++failures;
                std::printf("shape violation: 8C biased slower than "
                            "fixed at load %.2f\n", loads[li]);
            }
        }
        std::printf("figure 4 checks: %s\n",
                    failures == 0 ? "ALL PASS" : "FAILURES PRESENT");
        return failures == 0 ? 0 : 2;
    });
}
