/**
 * @file
 * §3.4 extension A4 — hybrid traffic: CBR and VBR streams sharing the
 * router with best-effort datagrams out of one pool of link and
 * buffer resources.  The MMR goal: "satisfying the QoS requirements
 * of multimedia traffic, minimizing the average latency of
 * best-effort traffic, and maximizing link utilization".
 *
 * Sweeping total load with a 50/25/25 CBR/VBR/best-effort mix, the
 * guaranteed classes must keep near-flat delay while best-effort
 * absorbs the congestion.
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

        std::printf("Claim A4: hybrid CBR/VBR/best-effort traffic "
                    "(50/25/25 mix, biased, 8 candidates)\n");

        ExperimentConfig base;
        base.mix.cbrShare = 0.5;
        base.mix.vbrShare = 0.25;
        base.mix.beShare = 0.25;
        base.mix.vbrProfile.framesPerSecond = 500.0;
        const auto results = runSweep(
            {{"hybrid", SchedulerKind::BiasedPriority, 8}}, loads, opts,
            base);

        Table t({"offered_load", "cbr_delay_us", "vbr_delay_us",
                 "be_delay_us", "cbr_jitter", "utilization"});
        std::vector<double> cbr_delay, be_delay;
        const double ns = RouterConfig{}.flitCycleNanos();
        for (std::size_t li = 0; li < loads.size(); ++li) {
            const ExperimentResult &r = results[0][li];
            cbr_delay.push_back(r.cbr.delayCycles.mean() * ns / 1000.0);
            be_delay.push_back(r.bestEffort.delayCycles.mean() * ns /
                               1000.0);
            t.addRow({Table::num(loads[li], 2),
                      Table::num(cbr_delay.back()),
                      Table::num(r.vbr.delayCycles.mean() * ns / 1000.0),
                      Table::num(be_delay.back()),
                      Table::num(r.cbr.jitterCycles.mean()),
                      Table::num(r.utilization, 3)});
        }
        t.print(std::cout);
        t.printCsv(std::cout, "hybrid_traffic");

        // Shape: at the top load, best-effort pays and the guaranteed
        // class stays fast.
        int failures = 0;
        const std::size_t last = loads.size() - 1;
        if (!(cbr_delay[last] <= be_delay[last]))
            ++failures;
        if (cbr_delay[last] > 4.0 * std::max(1e-9, cbr_delay[0]) &&
            cbr_delay[last] > 2.0)
            ++failures; // guaranteed delay must stay near-flat
        std::printf("shape check (CBR protected, best-effort absorbs "
                    "congestion): %s\n",
                    failures == 0 ? "PASS" : "FAIL");
        return failures == 0 ? 0 : 2;
    });
}
