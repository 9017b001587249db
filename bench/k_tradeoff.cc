/**
 * @file
 * §4.1 ablation A2 — the round-length factor K: "a greater value of K
 * provides a higher flexibility for bandwidth allocation.  However,
 * it may increase jitter on a connection since rounds take longer to
 * complete.  Therefore, the selected value for K is a trade-off
 * between flexibility and jitter."
 *
 * For K in {1, 2, 4, 8} this bench reports (a) the bandwidth
 * over-allocation caused by cycles/round quantization across the
 * paper's rate ladder and (b) measured jitter/delay at a fixed load.
 */

#include "bench_common.hh"
#include "traffic/rates.hh"

int
main(int argc, char **argv)
{
    using namespace mmr;
    using namespace mmr::bench;
    return guardedMain([&] {
        Cli cli;
        addSweepFlags(cli);
        cli.flag("load", "0.8", "offered load for the jitter column");
        if (!cli.parse(argc, argv))
            return 0;
        const auto opts = sweepOptions(cli);
        const double load = cli.real("load");

        std::printf("Claim A2: round length K — allocation granularity "
                    "vs jitter (load %.0f%%)\n", 100.0 * load);

        const double link = 1.24 * kGbps;
        const unsigned vcs = 256;

        const std::vector<unsigned> ks{1, 2, 4, 8};
        std::vector<Point> points;
        for (unsigned k : ks) {
            Point p{"K" + std::to_string(k), {}};
            p.cfg.router.roundFactorK = k;
            p.cfg.router.candidates = 8;
            p.cfg.offeredLoad = load;
            points.push_back(std::move(p));
        }
        const auto results = runGrid(std::move(points), opts);

        Table t({"K", "round_cycles", "mean_overalloc_pct",
                 "worst_overalloc_pct", "jitter_cycles", "delay_us",
                 "p99_delay_cycles"});
        std::vector<double> overalloc_by_k;
        for (std::size_t i = 0; i < ks.size(); ++i) {
            const unsigned round = ks[i] * vcs;
            // Quantization error over the rate ladder.
            double mean_err = 0.0, worst_err = 0.0;
            for (double rate : paperRateLadder()) {
                const double granted = grantedRate(
                    cyclesPerRound(rate, link, round), link, round);
                const double err = (granted - rate) / rate * 100.0;
                mean_err += err;
                worst_err = std::max(worst_err, err);
            }
            mean_err /= static_cast<double>(paperRateLadder().size());

            const ExperimentResult &r = results[i];
            overalloc_by_k.push_back(mean_err);
            t.addRow({std::to_string(ks[i]), std::to_string(round),
                      Table::num(mean_err, 2), Table::num(worst_err, 2),
                      Table::num(r.meanJitterCycles),
                      Table::num(r.meanDelayUs),
                      Table::num(r.p99DelayCycles, 1)});
        }
        t.print(std::cout);
        t.printCsv(std::cout, "k_tradeoff");

        // Shape: over-allocation strictly improves with K.
        int failures = 0;
        for (std::size_t i = 1; i < overalloc_by_k.size(); ++i)
            if (overalloc_by_k[i] > overalloc_by_k[i - 1] + 1e-9)
                ++failures;
        std::printf("shape check (allocation granularity improves with "
                    "K): %s\n", failures == 0 ? "PASS" : "FAIL");
        return failures == 0 ? 0 : 2;
    });
}
