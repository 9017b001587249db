/**
 * @file
 * Fault-injection & recovery bench.
 *
 * Sweeps the link-failure rate over a network of MMR routers and
 * reports, with the RecoveryManager's retry+reroute machinery on and
 * off: end-to-end stream acceptance (streams alive and serviced at
 * the end over streams requested), CBR delay/jitter, and the recovery
 * counters.  Shape checks assert the recovery story the subsystem
 * exists to tell:
 *
 *  - a fault-free run accepts and keeps every stream;
 *  - under a low (1%-per-10k-cycles) link-failure rate, recovery
 *    keeps acceptance within 5 points of fault-free;
 *  - admitted CBR connections still meet QoS after re-routing (worst
 *    per-connection mean delay stays within a small factor of the
 *    fault-free worst);
 *  - recovery beats no-recovery at the highest failure rate.
 *
 * A second phase is the randomized property sweep: N seeds of random
 * fault schedules (link churn + probe drops + flit corruption) on
 * mixed topologies with the full invariant battery force-enabled —
 * any violated invariant panics the bench — plus a same-seed
 * digest-reproducibility audit.
 */

#include <cmath>
#include <vector>

#include "bench_common.hh"
#include "harness/network_experiment.hh"
#include "sim/invariant.hh"

namespace
{

unsigned gShards = 1; ///< --shards, applied to every run in the bench

mmr::NetworkExperimentConfig
sweepConfig(const std::string &topo, std::uint64_t seed, mmr::Cycle warmup,
            mmr::Cycle measure, mmr::Cycle drain, double fail_per_10k,
            bool recovery_on, mmr::Cycle cbr_budget = 0)
{
    using namespace mmr;
    NetworkExperimentConfig c;
    c.net.shards = gShards;
    c.topologySpec = topo;
    c.seed = seed;
    c.cbrDelayBudgetCycles = cbr_budget;
    c.net.router.vcsPerPort = 32;
    c.net.router.candidates = 8;
    c.cbrStreamsPerHost = 1;
    c.cbrRateBps = 10 * kMbps;
    c.beFlowsPerHost = 1;
    c.beRateBps = 2 * kMbps;
    c.warmupCycles = warmup;
    c.measureCycles = measure;
    c.drainCycles = drain;
    c.faults.linkFailPer10k = fail_per_10k;
    c.faults.meanRepairCycles = 6000;
    c.recovery.enabled = recovery_on;
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
        cli.flag("topo", "mesh:4x4", "topology spec");
        cli.flag("warmup", "5000", "warm-up flit cycles");
        cli.flag("measure", "20000", "measured flit cycles");
        cli.flag("drain", "3000", "post-measurement drain cycles");
        cli.flag("rates", "0,0.01,0.05,0.2",
                 "expected link failures per link per 10k cycles");
        cli.flag("prop-seeds", "50",
                 "randomized fault-schedule seeds for the invariant "
                 "sweep (0 disables)");
        cli.flag("cbr-budget", "200",
                 "CBR end-to-end delay budget in flit cycles for the "
                 "QoS deadline columns (0 = off)");
        cli.flag("faults", "",
                 "single-scenario mode: fault model spec, e.g. "
                 "fail=0.05,repair=6000,drop=0.02,corrupt=1e-4");
        cli.flag("fault-events", "",
                 "single-scenario mode: explicit event list, e.g. "
                 "down@500:2-3;up@900:2-3");
        cli.flag("shards", "1",
                 "intra-run shard count for the parallel network core "
                 "(results are bit-identical across values)");
        if (!cli.parse(argc, argv))
            return 0;
        gShards = shardsFromCli(cli);
        const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
        const std::string topo = cli.str("topo");
        const auto warmup = cli.count<Cycle>("warmup");
        const auto measure = cli.count<Cycle>("measure");
        const auto drain = cli.count<Cycle>("drain");
        const auto prop_seeds = cli.count<unsigned>("prop-seeds");
        const auto cbr_budget = cli.count<Cycle>("cbr-budget");
        const std::vector<double> rates = cli.reals("rates");

        // ---- single-scenario mode ---------------------------------
        // Reproduce one fault scenario — either a stochastic model
        // spec (seed-derived schedule) or an explicit event list —
        // and dump the resolved plan as JSON plus the outcome.
        const std::string faults_spec = cli.str("faults");
        const std::string fault_events = cli.str("fault-events");
        if (!faults_spec.empty() || !fault_events.empty()) {
            NetworkExperimentConfig c = sweepConfig(
                topo, seed, warmup, measure, drain, 0.0, true);
            if (!faults_spec.empty())
                c.faults = parseFaultModel(faults_spec);
            c.faultEvents = fault_events;
            if (c.faults.horizon == 0)
                c.faults.horizon = warmup + measure;
            {
                FaultPlan plan =
                    fault_events.empty()
                        ? FaultPlan::random(
                              topologyFromSpec(topo, seed), c.faults,
                              seed ^ 0xfa17a11edfa57ULL)
                        : FaultPlan::fromEvents(
                              fault_events,
                              topologyFromSpec(topo, seed));
                std::printf("# begin-json fault_plan\n");
                plan.printJson(std::cout);
                std::printf("\n# end-json\n");
            }
            const auto r = runNetworkExperiment(c);
            std::printf("scenario: %u/%u streams alive, %llu conns "
                        "failed, %llu recovered, %llu abandoned, "
                        "%llu link downs / %llu ups, digest %016llx\n",
                        r.streamsAlive, r.streamsRequested,
                        static_cast<unsigned long long>(
                            r.connectionsFailed),
                        static_cast<unsigned long long>(
                            r.connectionsRecovered),
                        static_cast<unsigned long long>(
                            r.connectionsAbandoned),
                        static_cast<unsigned long long>(r.linkDowns),
                        static_cast<unsigned long long>(r.linkUps),
                        static_cast<unsigned long long>(
                            networkResultDigest(r)));
            return 0;
        }

        std::printf("Fault recovery on %s: acceptance and CBR QoS vs "
                    "link-failure rate\n",
                    topo.c_str());

        Table t({"fail_per_10k", "acceptance", "acc_no_recovery",
                 "conns_failed", "recovered", "abandoned", "retries",
                 "mean_delay", "jitter", "p99_delay",
                 "worst_conn_delay", "qos_viol_rate",
                 "qos_worst_excess", "cbr_p999"});
        std::vector<NetworkExperimentResult> sweep;
        for (double rate : rates) {
            const auto r = runNetworkExperiment(
                sweepConfig(topo, seed, warmup, measure, drain, rate,
                            true, cbr_budget));
            const auto rn =
                rate > 0.0
                    ? runNetworkExperiment(sweepConfig(
                          topo, seed, warmup, measure, drain, rate,
                          false))
                    : r;
            const double acc =
                static_cast<double>(r.streamsAlive) /
                static_cast<double>(r.streamsRequested);
            const double acc_n =
                static_cast<double>(rn.streamsAlive) /
                static_cast<double>(rn.streamsRequested);
            t.addRow({Table::num(rate, 3), Table::num(acc, 4),
                      Table::num(acc_n, 4),
                      std::to_string(r.connectionsFailed),
                      std::to_string(r.connectionsRecovered),
                      std::to_string(r.connectionsAbandoned),
                      std::to_string(r.recoveryRetries),
                      Table::num(r.meanDelayCycles, 4),
                      Table::num(r.meanJitterCycles, 4),
                      Table::num(r.p99DelayCycles, 4),
                      Table::num(r.maxAliveConnMeanDelay, 4),
                      Table::num(r.qosViolationRate, 4),
                      Table::num(r.worstQosExcessCycles, 0),
                      Table::num(r.cbrLatency.p999, 0)});
            sweep.push_back(r);
        }
        t.print(std::cout);
        t.printCsv(std::cout, "fault_recovery");
        t.printJson(std::cout, "fault_recovery");

        // ---- shape checks -----------------------------------------
        int failures = 0;
        auto check = [&](bool ok, const char *what) {
            std::printf("shape check: %-58s %s\n", what,
                        ok ? "PASS" : "FAIL");
            if (!ok)
                ++failures;
        };

        auto acceptance = [](const NetworkExperimentResult &r) {
            return static_cast<double>(r.streamsAlive) /
                   static_cast<double>(r.streamsRequested);
        };
        const NetworkExperimentResult *fault_free = nullptr;
        const NetworkExperimentResult *low_rate = nullptr;
        const NetworkExperimentResult *high_rate = nullptr;
        for (std::size_t i = 0; i < rates.size(); ++i) {
            if (rates[i] == 0.0 && !fault_free)
                fault_free = &sweep[i];
            if (rates[i] > 0.0 && rates[i] <= 0.011 && !low_rate)
                low_rate = &sweep[i];
            if (rates[i] > 0.0)
                high_rate = &sweep[i];
        }

        if (fault_free) {
            check(acceptance(*fault_free) == 1.0 &&
                      fault_free->connectionsFailed == 0,
                  "fault-free run accepts and keeps every stream");
        }
        if (fault_free && low_rate) {
            check(acceptance(*low_rate) >=
                      acceptance(*fault_free) - 0.05,
                  "1% failure rate: acceptance within 5 points of "
                  "fault-free");
            const double bound =
                std::max(4.0 * fault_free->maxAliveConnMeanDelay,
                         fault_free->maxAliveConnMeanDelay + 25.0);
            check(low_rate->maxAliveConnMeanDelay <= bound,
                  "1% failure rate: admitted CBR streams keep QoS "
                  "after recovery");
        }
        if (high_rate) {
            check(high_rate->connectionsFailed == 0 ||
                      high_rate->connectionsRecovered > 0,
                  "failures at the top rate are actually recovered");
            // Recompute the no-recovery contrast for the top rate.
            const auto rn = runNetworkExperiment(
                sweepConfig(topo, seed, warmup, measure, drain,
                            rates.back(), false));
            check(acceptance(*high_rate) >= acceptance(rn),
                  "recovery never loses to no-recovery on acceptance");
        }

        // ---- randomized fault-schedule property sweep -------------
        if (prop_seeds > 0) {
            std::printf("\nrandomized fault sweep: %u seeds, "
                        "invariants force-enabled\n",
                        prop_seeds);
            invariant::setEnabled(true);
            const char *topos[] = {"mesh:3x3", "ring:8",
                                   "irregular:10:4:4"};
            std::uint64_t digests = 0;
            unsigned digest_checks = 0;
            bool digests_ok = true;
            for (unsigned s = 0; s < prop_seeds; ++s) {
                NetworkExperimentConfig c = sweepConfig(
                    topos[s % 3], seed + 7919 * (s + 1), 1000, 4000,
                    1500, 1.0, true);
                c.faults.meanRepairCycles = 2000;
                c.faults.probeDropRate = 0.02;
                c.faults.corruptRate = 2e-4;
                c.invariantPeriod = 4;
                const auto r = runNetworkExperiment(c);
                if (r.invariantChecks == 0)
                    mmr_fatal("invariant sweep ran zero checks");
                digests ^= networkResultDigest(r);
                if (s % 10 == 0) {
                    ++digest_checks;
                    const auto again = runNetworkExperiment(c);
                    if (networkResultDigest(again) !=
                        networkResultDigest(r))
                        digests_ok = false;
                }
            }
            invariant::clearOverride();
            std::printf("  combined digest %016llx "
                        "(%u reproducibility re-runs)\n",
                        static_cast<unsigned long long>(digests),
                        digest_checks);
            check(true, "no invariant fired across randomized fault "
                        "schedules");
            check(digests_ok,
                  "same-seed fault runs reproduce bit-identical "
                  "digests");
        }

        std::printf("fault recovery checks: %s\n",
                    failures == 0 ? "ALL PASS" : "FAIL");
        return failures == 0 ? 0 : 2;
    });
}
