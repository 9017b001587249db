/**
 * @file
 * §5.2 per-rate claim — "These jitter values are averaged over a
 * large range of connection speeds.  Actual jitter values for
 * high-speed connections will be even less and those for low-speed
 * connections will be relatively higher.  While we may not be too
 * concerned with relatively higher jitter values on a 64 Kbps
 * connection we expect that jitter values on a 10 Mbps connection
 * will be of more concern."
 *
 * This bench breaks delay and jitter down by connection rate under
 * three priority policies (the MMR biased scheme, fixed rate-derived
 * priorities, and the classical age scheme) at a fixed high load, and
 * checks that biasing gives the fast connections the low jitter the
 * paper promises.
 */

#include <cmath>
#include <map>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mmr;
    using namespace mmr::bench;
    return guardedMain([&] {
        Cli cli;
        addSweepFlags(cli);
        cli.flag("load", "0.85", "offered load");
        cli.flag("cbr-budget", "0",
                 "CBR delay budget in flit cycles (0 = no QoS "
                 "deadline accounting)");
        if (!cli.parse(argc, argv))
            return 0;
        const auto opts = sweepOptions(cli);
        const double load = cli.real("load");
        const auto budget = static_cast<Cycle>(cli.integer("cbr-budget"));

        std::printf("Per-rate QoS at %.0f%% load, 8 candidates "
                    "(jitter in router cycles)\n", 100.0 * load);

        struct Policy
        {
            std::string name;
            SchedulerKind kind;
        };
        const std::vector<Policy> policies{
            {"biased", SchedulerKind::BiasedPriority},
            {"fixed", SchedulerKind::FixedPriority},
            {"age", SchedulerKind::AgePriority},
        };

        // rate (Mb/s) -> per-policy jitter and delay means.
        std::map<double, std::vector<double>> jitter_by_rate;
        std::map<double, std::vector<double>> delay_by_rate;
        const double link = RouterConfig{}.linkRateBps;

        std::vector<ExperimentResult> polResults;
        for (const Policy &pol : policies) {
            ExperimentConfig cfg;
            cfg.router.scheduler = pol.kind;
            cfg.router.candidates = 8;
            cfg.offeredLoad = load;
            cfg.warmupCycles = opts.warmupCycles;
            cfg.measureCycles = opts.measureCycles;
            cfg.seed = opts.seed;
            cfg.cbrDelayBudget = budget;

            SingleRouterExperiment exp(cfg);
            polResults.push_back(exp.run());
            std::fprintf(stderr, "  %s done\n", pol.name.c_str());

            std::map<double, StreamStat> jitter, delay;
            for (const ChannelRef in : exp.channels()) {
                const SegmentParams seg = exp.router().segment(in);
                const ConnectionRecorder *rec =
                    exp.metrics().connection(seg.id);
                if (rec == nullptr || seg.interArrival <= 0.0)
                    continue;
                const double mbps =
                    link / seg.interArrival / kMbps;
                // Round to the ladder value to group identical rates.
                const double key =
                    std::round(mbps * 1000.0) / 1000.0;
                jitter[key].merge(rec->jitter());
                delay[key].merge(rec->delay());
            }
            for (const auto &[rate, stat] : jitter)
                jitter_by_rate[rate].push_back(stat.mean());
            for (const auto &[rate, stat] : delay)
                delay_by_rate[rate].push_back(stat.mean());
        }

        Table t({"rate_mbps", "jitter_biased", "jitter_fixed",
                 "jitter_age", "delay_biased_cyc", "delay_fixed_cyc",
                 "delay_age_cyc"});
        for (const auto &[rate, jit] : jitter_by_rate) {
            if (jit.size() != policies.size())
                continue;
            const auto &del = delay_by_rate[rate];
            t.addRow({Table::num(rate, 3), Table::num(jit[0], 3),
                      Table::num(jit[1], 3), Table::num(jit[2], 3),
                      Table::num(del[0], 2), Table::num(del[1], 2),
                      Table::num(del[2], 2)});
        }
        t.print(std::cout);
        t.printCsv(std::cout, "rate_class_qos");

        if (opts.percentiles) {
            // Tail columns the paper's mean-only table hides: CBR
            // delay percentiles per policy, the stage decomposition
            // at p99, and — when --cbr-budget is set — the deadline
            // violation rate and worst excess.
            Table pt({"policy", "cbr_p50", "cbr_p90", "cbr_p99",
                      "cbr_p999", "cbr_max", "qos_violation_rate",
                      "qos_worst_excess_cyc"});
            for (std::size_t i = 0; i < policies.size(); ++i) {
                const LatencySummary &s = polResults[i].cbr.latency;
                const QosCounters &q = polResults[i].cbr.qos;
                pt.addRow({policies[i].name, Table::num(s.p50, 0),
                           Table::num(s.p90, 0), Table::num(s.p99, 0),
                           Table::num(s.p999, 0),
                           Table::num(s.maxCycles, 0),
                           Table::num(q.violationRate(), 4),
                           Table::num(q.worstExcessCycles, 0)});
            }
            pt.print(std::cout);
            pt.printCsv(std::cout, "rate_class_qos_percentiles");

            Table st({"policy", "source_queue_p99", "vc_residency_p99",
                      "arb_wait_p99", "switch_traversal_p99"});
            for (std::size_t i = 0; i < policies.size(); ++i) {
                const auto p99 = [&](LatencyStage stage) {
                    return Table::num(
                        polResults[i]
                            .stageLatency[static_cast<std::size_t>(
                                stage)]
                            .p99,
                        0);
                };
                st.addRow({policies[i].name,
                           p99(LatencyStage::SourceQueue),
                           p99(LatencyStage::VcResidency),
                           p99(LatencyStage::ArbWait),
                           p99(LatencyStage::SwitchTraversal)});
            }
            st.print(std::cout);
            st.printCsv(std::cout, "rate_class_qos_stages");
        }

        // Shape checks: under biasing, the fastest ladder rate gets
        // (a) lower jitter than the slowest and (b) lower jitter than
        // it gets under the age policy, which ignores connection
        // speed entirely.
        int failures = 0;
        if (!jitter_by_rate.empty()) {
            const auto &slowest = jitter_by_rate.begin()->second;
            const auto &fastest = jitter_by_rate.rbegin()->second;
            if (!(fastest[0] <= slowest[0] + 0.05))
                ++failures;
            if (!(fastest[0] <= fastest[2] + 0.05))
                ++failures;
        }
        std::printf("shape check (biasing favors high-speed "
                    "connections): %s\n",
                    failures == 0 ? "PASS" : "FAIL");
        return failures == 0 ? 0 : 2;
    });
}
