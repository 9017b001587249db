/**
 * @file
 * §5.2 claim C1 — "using a larger number of candidates is effective
 * in increasing switch utilization and is not significantly affected
 * by the priority scheme": utilization (and carried load) versus the
 * candidate count for both priority schemes at a high offered load,
 * plus the saturation throughput of each candidate count.
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
        cli.flag("load", "0.9", "offered load for the candidate sweep");
        if (!cli.parse(argc, argv))
            return 0;
        const auto opts = sweepOptions(cli);
        const double load = cli.real("load");

        std::printf("Claim C1: switch utilization vs candidate count "
                    "(offered load %.0f%%)\n", 100.0 * load);

        const std::vector<unsigned> candidate_counts{1, 2, 3, 4, 6, 8};
        std::vector<Series> series;
        for (unsigned c : candidate_counts) {
            const std::string cand = std::to_string(c) + "c";
            series.push_back(
                {"biased_" + cand, SchedulerKind::BiasedPriority, c});
            series.push_back(
                {"fixed_" + cand, SchedulerKind::FixedPriority, c});
        }
        const auto results = runSweep(series, {load}, opts);

        Table t({"candidates", "util_biased", "util_fixed",
                 "delay_us_biased", "delay_us_fixed"});
        std::vector<double> util_biased;
        for (std::size_t i = 0; i < candidate_counts.size(); ++i) {
            const ExperimentResult &biased = results[2 * i][0];
            const ExperimentResult &fixed = results[2 * i + 1][0];
            util_biased.push_back(biased.utilization);
            t.addRow({std::to_string(candidate_counts[i]),
                      Table::num(biased.utilization, 3),
                      Table::num(fixed.utilization, 3),
                      Table::num(biased.meanDelayUs),
                      Table::num(fixed.meanDelayUs)});
        }
        t.print(std::cout);
        t.printCsv(std::cout, "candidates_utilization");

        // Shape: utilization is non-decreasing in the candidate count
        // (up to noise), and the two priority schemes track closely.
        int failures = 0;
        for (std::size_t i = 1; i < util_biased.size(); ++i)
            if (util_biased[i] + 0.02 < util_biased[i - 1])
                ++failures;
        std::printf("shape check (utilization grows with candidates): "
                    "%s\n", failures == 0 ? "PASS" : "FAIL");
        return failures == 0 ? 0 : 2;
    });
}
