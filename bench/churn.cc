/**
 * @file
 * Session-churn bench: acceptance ratio and measured setup latency
 * versus offered session arrival rate.
 *
 * The paper's admission-control machinery (EPB probes, per-class QoS)
 * is exercised here under *populations*: sessions arrive on a Poisson
 * schedule (optionally shaped by a flash-crowd ramp and a diurnal
 * curve), hold for an exponential time while injecting CBR/VBR flits,
 * and depart.  Each sweep point reports the session acceptance ratio,
 * the measured probe+ack setup-latency percentiles, and the CBR QoS
 * violation rate — clean and (via --faults) under a composed
 * link-fault schedule, the churn x faults stress scenario.
 *
 * A scale phase (--sessions, full mode only) runs one overloaded
 * point until the cumulative population crosses the target —
 * defaulting to one million sessions in this process — and reports
 * the resident per-live-session footprint, asserting the <= 64 B
 * pooled-state contract and a leak-free drain.
 *
 * --smoke shrinks the grid and cycle counts for CI; its table output
 * is locked byte-exact by results/golden/churn.txt.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "harness/network_experiment.hh"
#include "sim/invariant.hh"

namespace
{

unsigned gShards = 1; ///< --shards, applied to every run in the bench

struct ChurnKnobs
{
    std::string topo = "mesh:3x3";
    mmr::Cycle warmup = 1000;
    mmr::Cycle measure = 12000;
    mmr::Cycle drain = 3000;
    std::uint64_t seed = 42;
    mmr::Cycle holding = 2000;
    std::string mix;
    std::string flash;
    std::string diurnal;
    std::uint32_t maxLive = 4096;
    mmr::Cycle cbrBudget = 400;
    mmr::FaultModel faults; ///< zero rates = clean
};

mmr::NetworkExperimentConfig
churnConfig(const ChurnKnobs &k, double arrivals_per_1k)
{
    using namespace mmr;
    NetworkExperimentConfig c;
    c.net.shards = gShards;
    c.topologySpec = k.topo;
    c.seed = k.seed;
    c.net.router.vcsPerPort = 32;
    c.net.router.candidates = 8;
    // Pure population workload: no static per-host streams or flows.
    c.cbrStreamsPerHost = 0;
    c.beFlowsPerHost = 0;
    c.warmupCycles = k.warmup;
    c.measureCycles = k.measure;
    c.drainCycles = k.drain;
    c.cbrDelayBudgetCycles = k.cbrBudget;
    c.faults = k.faults;
    c.churn.enabled = true;
    c.churn.maxLiveSessions = k.maxLive;
    c.churn.workload.arrivalsPer1k = arrivals_per_1k;
    c.churn.workload.holdingMeanCycles = k.holding;
    if (!k.mix.empty())
        c.churn.workload.mix = parseSessionMix(k.mix);
    if (!k.flash.empty())
        c.churn.workload.flash = parseFlashCrowd(k.flash);
    if (!k.diurnal.empty())
        c.churn.workload.diurnal = parseDiurnal(k.diurnal);
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mmr;
    using namespace mmr::bench;
    return guardedMain([&] {
        Cli cli;
        cli.flag("seed", "42", "experiment seed");
        cli.flag("topo", "mesh:3x3", "topology spec");
        cli.flag("warmup", "1000", "warm-up flit cycles");
        cli.flag("measure", "12000", "measured flit cycles");
        cli.flag("drain", "3000", "post-measurement drain cycles");
        cli.flag("arrivals", "25,100,250,500",
                 "offered session arrival rates, sessions per 1000 "
                 "cycles (sweep grid)");
        cli.flag("holding", "2000",
                 "mean session holding time in flit cycles "
                 "(exponential)");
        cli.flag("mix", "",
                 "rate-class mix, RATE=WEIGHT pairs (e.g. "
                 "64k=4,1.54m=2,vbr:5m=1); default: paper rate ladder");
        cli.flag("flash-crowd", "",
                 "flash-crowd overlay, e.g. at=2000,ramp=1500,"
                 "hold=3000,peak=4");
        cli.flag("diurnal", "",
                 "diurnal modulation, e.g. period=8000,amp=0.5");
        cli.flag("max-live", "4096",
                 "live-session pool cap (bounds memory at 64 B each)");
        cli.flag("cbr-budget", "400",
                 "CBR end-to-end delay budget in flit cycles");
        cli.flag("faults", "",
                 "fault model composed with the churn workload, e.g. "
                 "fail=0.05,repair=4000,drop=0.02 (adds faulted "
                 "columns to the sweep)");
        cli.flag("sessions", "1000000",
                 "scale phase: cumulative-session target for the "
                 "million-session run (0 disables; off in --smoke)");
        cli.flag("smoke", "0",
                 "CI mode: tiny grid and cycle counts, golden-locked "
                 "output, no scale phase");
        cli.flag("shards", "1",
                 "intra-run shard count for the parallel network core "
                 "(results are bit-identical across values)");
        if (!cli.parse(argc, argv))
            return 0;
        gShards = shardsFromCli(cli);
        const bool smoke = cli.boolean("smoke");

        ChurnKnobs k;
        k.topo = cli.str("topo");
        k.seed = static_cast<std::uint64_t>(cli.integer("seed"));
        k.warmup = cli.count<Cycle>("warmup");
        k.measure = cli.count<Cycle>("measure");
        k.drain = cli.count<Cycle>("drain");
        k.holding = cli.count<Cycle>("holding");
        k.mix = cli.str("mix");
        k.flash = cli.str("flash-crowd");
        k.diurnal = cli.str("diurnal");
        k.maxLive = cli.count<std::uint32_t>("max-live");
        k.cbrBudget = cli.count<Cycle>("cbr-budget");

        std::vector<double> rates = cli.reals("arrivals");
        if (smoke) {
            rates = {50.0, 400.0};
            k.measure = 6000;
            k.drain = 2500;
        }

        const std::string faults_spec = cli.str("faults");
        FaultModel fault_model;
        if (!faults_spec.empty())
            fault_model = parseFaultModel(faults_spec);
        else if (smoke)
            // The smoke run always exercises the churn x faults
            // composition; CI runs it with and without --faults, and
            // this default keeps the faulted columns golden-locked.
            fault_model = parseFaultModel("fail=0.3,repair=2500");
        const bool with_faults = !faults_spec.empty() || smoke;

        std::printf("Session churn on %s: acceptance and setup "
                    "latency vs offered arrival rate\n",
                    k.topo.c_str());

        Table t({"arrivals_per_1k", "acceptance", "setup_p50",
                 "setup_p99", "qos_viol_rate", "completed",
                 "abandoned", "peak_live", "acceptance_faults",
                 "abandoned_faults"});
        std::vector<NetworkExperimentResult> clean;
        std::vector<NetworkExperimentResult> faulted;
        for (double rate : rates) {
            const auto r = runNetworkExperiment(churnConfig(k, rate));
            clean.push_back(r);
            NetworkExperimentResult rf;
            if (with_faults) {
                ChurnKnobs kf = k;
                kf.faults = fault_model;
                rf = runNetworkExperiment(churnConfig(kf, rate));
                faulted.push_back(rf);
            }
            t.addRow({Table::num(rate, 0),
                      Table::num(r.sessionAcceptance, 4),
                      Table::num(r.sessionSetupLatency.p50, 0),
                      Table::num(r.sessionSetupLatency.p99, 0),
                      Table::num(r.qosViolationRate, 4),
                      std::to_string(r.sessionsCompleted),
                      std::to_string(r.sessionsAbandoned),
                      std::to_string(r.sessionPeakLive),
                      with_faults
                          ? Table::num(rf.sessionAcceptance, 4)
                          : std::string("-"),
                      with_faults
                          ? std::to_string(rf.sessionsAbandoned)
                          : std::string("-")});
            std::fprintf(stderr,
                         "  arrivals %.0f/1k done (%llu sessions)\n",
                         rate,
                         static_cast<unsigned long long>(
                             r.sessionsArrived));
        }
        t.print(std::cout);
        t.printCsv(std::cout, "churn");
        t.printJson(std::cout, "churn");

        // ---- shape checks -----------------------------------------
        int failures = 0;
        auto check = [&](bool ok, const char *what) {
            std::printf("shape check: %-58s %s\n", what,
                        ok ? "PASS" : "FAIL");
            if (!ok)
                ++failures;
        };

        bool decided_all = true;
        bool drained_all = true;
        bool ledger_all = true;
        for (const auto *sweep : {&clean, &faulted}) {
            for (const auto &r : *sweep) {
                decided_all &= r.sessionsArrived ==
                               r.sessionsAdmitted + r.sessionsRejected;
                drained_all &= r.sessionsLeakedAtEnd == 0 &&
                               r.pendingSetupsAtEnd == 0 &&
                               r.openConnsAtEnd == 0;
                ledger_all &= r.sessionsAdmitted ==
                              r.sessionsCompleted + r.sessionsAbandoned;
            }
        }
        check(decided_all,
              "every arrival is decided: admitted + rejected");
        check(ledger_all,
              "admitted sessions all complete or are abandoned");
        check(drained_all,
              "drain leaves no sessions, probes or connections");
        check(clean.front().sessionAcceptance >=
                  clean.back().sessionAcceptance,
              "acceptance does not rise with offered session load");
        check(clean.front().sessionsAbandoned == 0,
              "clean runs abandon no sessions");
        bool setup_measured = true;
        for (const auto &r : clean)
            setup_measured &= r.sessionSetupLatency.count > 0 &&
                              r.sessionSetupLatency.p50 > 0;
        check(setup_measured,
              "setup latency is measured for admitted sessions");
        if (with_faults)
            check(faulted.back().sessionsAbandoned > 0 ||
                      faulted.back().connectionsFailed == 0,
                  "faulted runs account churn losses as abandoned");

        {
            const auto again =
                runNetworkExperiment(churnConfig(k, rates.front()));
            check(networkResultDigest(again) ==
                      networkResultDigest(clean.front()),
                  "same-seed churn runs reproduce bit-identical "
                  "digests");
        }

        // ---- scale phase: one process, >= 1M cumulative sessions --
        const auto target = cli.count<std::uint64_t>("sessions");
        if (!smoke && target > 0) {
            // Offered arrivals sized to cross the target within the
            // measured window; most are refused at admission under
            // this overload, which is exactly the regime the
            // acceptance ratio is about.
            const double per_cycle = 12.5;
            ChurnKnobs ks = k;
            ks.warmup = 500;
            ks.measure = static_cast<Cycle>(
                std::ceil(static_cast<double>(target) / per_cycle *
                          1.10));
            ks.drain = 4000;
            ks.maxLive = 65536;
            std::printf("\nscale phase: targeting %llu cumulative "
                        "sessions over %llu cycles\n",
                        static_cast<unsigned long long>(target),
                        static_cast<unsigned long long>(ks.measure));
            const auto r = runNetworkExperiment(
                churnConfig(ks, per_cycle * 1000.0));
            const double bytes_per_live =
                r.sessionPeakLive
                    ? static_cast<double>(r.sessionPoolBytes) /
                          static_cast<double>(r.sessionPeakLive)
                    : 0.0;
            std::printf(
                "scale: %llu sessions (%llu admitted, %llu rejected), "
                "peak live %llu, pool %llu B, %llu B/record, "
                "%.1f B/live-session, %llu leaked\n",
                static_cast<unsigned long long>(r.sessionsArrived),
                static_cast<unsigned long long>(r.sessionsAdmitted),
                static_cast<unsigned long long>(r.sessionsRejected),
                static_cast<unsigned long long>(r.sessionPeakLive),
                static_cast<unsigned long long>(r.sessionPoolBytes),
                static_cast<unsigned long long>(r.sessionLiveBytes),
                bytes_per_live,
                static_cast<unsigned long long>(
                    r.sessionsLeakedAtEnd));
            check(r.sessionsArrived >= target,
                  "scale run crosses the cumulative-session target");
            check(r.sessionLiveBytes <= 64,
                  "session records stay within 64 B");
            check(bytes_per_live <= 2.0 * 64.0,
                  "resident pool bytes per peak live session bounded");
            check(r.sessionsLeakedAtEnd == 0 &&
                      r.pendingSetupsAtEnd == 0 &&
                      r.openConnsAtEnd == 0,
                  "million-session drain is leak-free");
        }

        std::printf("churn checks: %s\n",
                    failures == 0 ? "ALL PASS" : "FAIL");
        return failures == 0 ? 0 : 2;
    });
}
