/**
 * @file
 * §4.2/§4.3 extension A3 — VBR bandwidth allocation and scheduling,
 * evaluated with the synthetic MPEG-like GOP model (the paper defers
 * VBR evaluation to future work; the machinery is fully specified in
 * §4 and implemented here).
 *
 * Part 1 — service discipline: CBR/permanent bandwidth first, then
 * VBR excess by user priority.  Measured per-priority delays must be
 * ordered by priority (high priority, low delay) since excess
 * bandwidth is granted priority-first.
 *
 * Part 2 — the concurrency factor: sweeping it trades the number of
 * admissible VBR connections (statistical multiplexing) against the
 * tail delay once bursts collide.
 */

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
        cli.flag("load", "0.7", "offered (mean-rate) load");
        if (!cli.parse(argc, argv))
            return 0;
        const auto opts = sweepOptions(cli);
        const double load = cli.real("load");

        // ---- Part 1: per-priority service ordering ----------------
        std::printf("Claim A3a: VBR excess bandwidth served in priority "
                    "order (load %.0f%%, peak/mean 3.0)\n", 100.0 * load);
        ExperimentConfig cfg;
        cfg.offeredLoad = load;
        cfg.router.candidates = 8;
        cfg.warmupCycles = opts.warmupCycles;
        cfg.measureCycles = opts.measureCycles;
        cfg.seed = opts.seed;
        cfg.mix.cbrShare = 0.0;
        cfg.mix.vbrShare = 1.0;
        cfg.mix.vbrPriorityLevels = 4;
        cfg.mix.vbrProfile.peakToMean = 3.0;
        // A frame clock fast enough to exercise many GOPs in the
        // measurement window.
        cfg.mix.vbrProfile.framesPerSecond = 500.0;

        SingleRouterExperiment exp(cfg);
        const ExperimentResult res = exp.run();
        std::fprintf(stderr, "  VBR mix done (%u connections)\n",
                     res.connections);

        std::map<int, StreamStat> delay_by_prio;
        std::map<int, StreamStat> jitter_by_prio;
        std::map<int, std::pair<std::uint64_t, std::uint64_t>>
            deadline_by_prio;
        for (const ChannelRef in : exp.channels()) {
            const SegmentParams seg = exp.router().segment(in);
            const ConnectionRecorder *rec =
                exp.metrics().connection(seg.id);
            if (rec == nullptr || seg.klass != TrafficClass::VBR)
                continue;
            delay_by_prio[seg.priority].merge(rec->delay());
            jitter_by_prio[seg.priority].merge(rec->jitter());
            auto it = exp.deadlineStats().find(seg.id);
            if (it != exp.deadlineStats().end()) {
                deadline_by_prio[seg.priority].first +=
                    it->second.first;
                deadline_by_prio[seg.priority].second +=
                    it->second.second;
            }
        }

        Table t({"priority", "flits", "delay_cycles", "delay_us",
                 "jitter_cycles", "deadline_miss_pct"});
        const double ns = cfg.router.flitCycleNanos();
        std::vector<double> delays;
        std::vector<double> misses;
        for (const auto &[prio, stat] : delay_by_prio) {
            const auto &[m, tot] = deadline_by_prio[prio];
            const double miss_pct =
                tot ? 100.0 * static_cast<double>(m) /
                          static_cast<double>(tot)
                    : 0.0;
            t.addRow({std::to_string(prio),
                      std::to_string(stat.count()),
                      Table::num(stat.mean()),
                      Table::num(stat.mean() * ns / 1000.0),
                      Table::num(jitter_by_prio[prio].mean()),
                      Table::num(miss_pct, 2)});
            delays.push_back(stat.mean());
            misses.push_back(miss_pct);
        }
        t.print(std::cout);
        t.printCsv(std::cout, "vbr_delay_by_priority");

        int failures = 0;
        // Highest priority (last row) must not be slower than the
        // lowest priority (first row), nor miss more frame deadlines.
        if (delays.size() >= 2 && delays.back() > delays.front())
            ++failures;
        if (misses.size() >= 2 && misses.back() > misses.front() + 1.0)
            ++failures;
        std::printf("shape check (high priority: lower delay and fewer "
                    "deadline misses): %s\n",
                    failures == 0 ? "PASS" : "FAIL");

        // ---- Part 2: concurrency factor sweep ----------------------
        std::printf("\nClaim A3b: concurrency factor — connections "
                    "admitted vs tail delay (demanded load 0.9)\n");
        Table t2({"concurrency", "connections", "achieved_load",
                  "delay_us", "p99_delay_cycles",
                  "deadline_miss_pct"});
        std::vector<unsigned> admitted;
        for (double cf : {1.0, 1.5, 2.0, 3.0, 4.0}) {
            ExperimentConfig c2 = cfg;
            c2.offeredLoad = 0.9;
            c2.router.concurrencyFactor = cf;
            const ExperimentResult r2 = runSingleRouter(c2);
            std::fprintf(stderr, "  concurrency %.1f done\n", cf);
            admitted.push_back(r2.connections);
            t2.addRow({Table::num(cf, 1), std::to_string(r2.connections),
                       Table::num(r2.achievedLoad, 3),
                       Table::num(r2.meanDelayUs),
                       Table::num(r2.p99DelayCycles, 1),
                       Table::num(100.0 * r2.vbr.deadlineMissRate(),
                                  2)});
        }
        t2.print(std::cout);
        t2.printCsv(std::cout, "vbr_concurrency_sweep");

        // Shape: a larger concurrency factor never admits fewer
        // connections (peak register is the binding constraint at
        // peak/mean = 3).
        for (std::size_t i = 1; i < admitted.size(); ++i)
            if (admitted[i] < admitted[i - 1])
                ++failures;
        std::printf("shape check (admissions grow with concurrency "
                    "factor): %s\n", failures == 0 ? "PASS" : "FAIL");
        return failures == 0 ? 0 : 2;
    });
}
