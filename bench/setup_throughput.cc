/**
 * @file
 * Control-plane setup throughput: setups/s and p99 setup latency vs
 * offered session arrival rate.
 *
 * Where bench/churn reports *protocol* outcomes (acceptance, QoS),
 * this bench measures the *simulator's* control-plane fast path: how
 * many probe-established sessions the process sets up and tears down
 * per wall-clock second under a churn population, clean and (with
 * --faults) against a composed link-fault schedule.  Every point also
 * reports the measured probe+ack setup-latency percentiles, which are
 * simulated-cycle quantities and therefore seed-stable.
 *
 * Composition checks: the first grid point is re-run through the
 * sharded network core (--shards composed) and on a worker thread
 * (the --jobs execution path), asserting networkResultDigest equality
 * with the serial run — the fast path changes when work happens,
 * never what work happens.
 *
 * --smoke shrinks the grid for CI; the "# begin-json setup_throughput"
 * block carries setups/s per point for scripts.  --seeds=N reruns the
 * faulted smoke point over N seeds (digest + drain checks only), which
 * is what the ASan job sweeps.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "harness/network_experiment.hh"

namespace
{

unsigned gShards = 1; ///< --shards, applied to every run in the bench

struct Knobs
{
    std::string topo = "mesh:4x4";
    mmr::Cycle warmup = 500;
    mmr::Cycle measure = 8000;
    mmr::Cycle drain = 4000;
    std::uint64_t seed = 42;
    mmr::Cycle holding = 900;
    std::uint32_t maxLive = 1024;
    mmr::FaultModel faults; ///< zero rates = clean
};

mmr::NetworkExperimentConfig
setupConfig(const Knobs &k, double arrivals_per_1k)
{
    using namespace mmr;
    NetworkExperimentConfig c;
    c.net.shards = gShards;
    c.topologySpec = k.topo;
    c.seed = k.seed;
    c.net.router.vcsPerPort = 32;
    c.net.router.candidates = 8;
    // Pure population workload: every connection in the run is a
    // churn session, so setups/s measures the setup path alone.
    c.cbrStreamsPerHost = 0;
    c.beFlowsPerHost = 0;
    c.warmupCycles = k.warmup;
    c.measureCycles = k.measure;
    c.drainCycles = k.drain;
    c.faults = k.faults;
    c.churn.enabled = true;
    c.churn.maxLiveSessions = k.maxLive;
    c.churn.workload.arrivalsPer1k = arrivals_per_1k;
    c.churn.workload.holdingMeanCycles = k.holding;
    return c;
}

struct Timed
{
    mmr::NetworkExperimentResult r;
    double wallSec = 0.0;
    double setupsPerSec = 0.0; ///< decided setups (admit+reject) / s
};

Timed
runTimed(const mmr::NetworkExperimentConfig &cfg)
{
    Timed t;
    const auto t0 = std::chrono::steady_clock::now();
    t.r = mmr::runNetworkExperiment(cfg);
    const auto t1 = std::chrono::steady_clock::now();
    t.wallSec = std::chrono::duration<double>(t1 - t0).count();
    // Throughput counts *decided* setups: every admit and every
    // refusal ran the probe machinery end to end.  Pool-full
    // refusals never launched a probe and are excluded.
    const auto decided =
        t.r.sessionsAdmitted + t.r.sessionsRejected -
        t.r.sessionsRejectedBusy;
    t.setupsPerSec = t.wallSec > 0.0
                         ? static_cast<double>(decided) / t.wallSec
                         : 0.0;
    return t;
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
        cli.flag("warmup", "500", "warm-up flit cycles");
        cli.flag("measure", "8000", "measured flit cycles");
        cli.flag("drain", "4000",
                 "post-measurement drain cycles (must outlast the "
                 "fault repair time so teardowns land)");
        cli.flag("arrivals", "100,250,500,1000",
                 "offered session arrival rates, sessions per 1000 "
                 "cycles (sweep grid)");
        cli.flag("holding", "900",
                 "mean session holding time in flit cycles");
        cli.flag("max-live", "1024", "live-session pool cap");
        cli.flag("faults", "",
                 "fault model composed with the churn workload, e.g. "
                 "fail=0.4,repair=1200,drop=0.02 (adds faulted "
                 "columns; --smoke composes a default)");
        cli.flag("shards", "1",
                 "intra-run shard count for the parallel network core "
                 "(results are bit-identical across values)");
        cli.flag("repeat", "1",
                 "timing repetitions per point; best setups/s is "
                 "reported (simulated metrics are identical)");
        cli.flag("seeds", "0",
                 "rerun the faulted smoke point over N consecutive "
                 "seeds, checking drain health per seed (ASan sweep)");
        cli.flag("smoke", "0",
                 "CI mode: tiny grid and cycle counts");
        if (!cli.parse(argc, argv))
            return 0;
        gShards = static_cast<unsigned>(cli.integer("shards"));
        const bool smoke = cli.boolean("smoke");
        const unsigned repeat = static_cast<unsigned>(
            std::max<long>(1, cli.integer("repeat")));

        Knobs k;
        k.topo = cli.str("topo");
        k.seed = static_cast<std::uint64_t>(cli.integer("seed"));
        k.warmup = static_cast<Cycle>(cli.integer("warmup"));
        k.measure = static_cast<Cycle>(cli.integer("measure"));
        k.drain = static_cast<Cycle>(cli.integer("drain"));
        k.holding = static_cast<Cycle>(cli.integer("holding"));
        k.maxLive = static_cast<std::uint32_t>(cli.integer("max-live"));

        std::vector<double> rates;
        for (const auto &p : cli.list("arrivals"))
            rates.push_back(std::stod(p));
        if (smoke) {
            rates = {150.0, 400.0};
            k.measure = 4000;
            // Links downed near the end of the measurement stay down
            // ~1200 cycles (the fault model's repair time) into the
            // drain; teardowns must still land before it ends.
            k.drain = 4000;
        }

        const std::string faults_spec = cli.str("faults");
        FaultModel fault_model;
        if (!faults_spec.empty())
            fault_model = parseFaultModel(faults_spec);
        else
            // The faulted columns always run: faults stress the
            // backtracking/teardown half of the fast path, and the
            // composition is what the digest checks must cover.
            fault_model = parseFaultModel("fail=0.4,repair=1200,"
                                          "drop=0.02");

        std::printf("Control-plane setup throughput on %s "
                    "(shards=%u): setups/s vs offered arrival rate\n",
                    k.topo.c_str(), gShards);

        Table t({"arrivals_per_1k", "setups_per_sec", "setup_p50",
                 "setup_p99", "acceptance", "setups_per_sec_faults",
                 "setup_p99_faults"});
        std::vector<Timed> clean;
        std::vector<Timed> faulted;
        for (double rate : rates) {
            Timed c = runTimed(setupConfig(k, rate));
            Knobs kf = k;
            kf.faults = fault_model;
            Timed f = runTimed(setupConfig(kf, rate));
            for (unsigned i = 1; i < repeat; ++i) {
                const Timed c2 = runTimed(setupConfig(k, rate));
                if (c2.setupsPerSec > c.setupsPerSec)
                    c = c2;
                const Timed f2 = runTimed(setupConfig(kf, rate));
                if (f2.setupsPerSec > f.setupsPerSec)
                    f = f2;
            }
            clean.push_back(c);
            faulted.push_back(f);
            t.addRow({Table::num(rate, 0),
                      Table::num(c.setupsPerSec, 0),
                      Table::num(c.r.sessionSetupLatency.p50, 0),
                      Table::num(c.r.sessionSetupLatency.p99, 0),
                      Table::num(c.r.sessionAcceptance, 4),
                      Table::num(f.setupsPerSec, 0),
                      Table::num(f.r.sessionSetupLatency.p99, 0)});
            std::fprintf(stderr,
                         "  arrivals %.0f/1k done (%.0f setups/s "
                         "clean, %.0f faulted)\n",
                         rate, c.setupsPerSec, f.setupsPerSec);
        }
        t.print(std::cout);
        t.printCsv(std::cout, "setup_throughput");
        t.printJson(std::cout, "setup_throughput");

        // ---- shape checks -----------------------------------------
        int failures = 0;
        auto check = [&](bool ok, const char *what) {
            std::printf("shape check: %-58s %s\n", what,
                        ok ? "PASS" : "FAIL");
            if (!ok)
                ++failures;
        };

        bool measured_all = true;
        bool drained_all = true;
        for (const auto *sweep : {&clean, &faulted}) {
            for (const auto &p : *sweep) {
                measured_all &= p.r.sessionsAdmitted > 0 &&
                                p.r.sessionSetupLatency.p99 > 0;
                drained_all &= p.r.sessionsLeakedAtEnd == 0 &&
                               p.r.pendingSetupsAtEnd == 0 &&
                               p.r.openConnsAtEnd == 0;
            }
        }
        check(measured_all,
              "every point admits sessions and measures setup p99");
        check(drained_all,
              "drain leaves no sessions, probes or connections");

        // Composition: serial vs sharded core vs worker thread, the
        // same point, clean and faulted — all four digests must match
        // their serial reference bit for bit.
        {
            Knobs kf = k;
            kf.faults = fault_model;
            const auto serialClean = networkResultDigest(clean[0].r);
            const auto serialFault = networkResultDigest(faulted[0].r);

            const unsigned saved = gShards;
            gShards = saved == 1 ? 2 : 1;
            const auto shardClean = networkResultDigest(
                runNetworkExperiment(setupConfig(k, rates[0])));
            const auto shardFault = networkResultDigest(
                runNetworkExperiment(setupConfig(kf, rates[0])));
            gShards = saved;

            std::uint64_t jobClean = 0;
            std::uint64_t jobFault = 0;
            std::thread worker([&] {
                jobClean = networkResultDigest(
                    runNetworkExperiment(setupConfig(k, rates[0])));
                jobFault = networkResultDigest(
                    runNetworkExperiment(setupConfig(kf, rates[0])));
            });
            worker.join();

            check(shardClean == serialClean &&
                      shardFault == serialFault,
                  "digest identical serial vs sharded core, clean "
                  "and faulted");
            check(jobClean == serialClean && jobFault == serialFault,
                  "digest identical serial vs worker thread, clean "
                  "and faulted");
        }

        // ---- ASan seed sweep: faulted smoke point over N seeds ----
        const auto nSeeds =
            static_cast<std::uint64_t>(cli.integer("seeds"));
        if (nSeeds > 0) {
            bool healthy = true;
            bool reproducible = true;
            for (std::uint64_t s = 0; s < nSeeds; ++s) {
                Knobs kf = k;
                kf.faults = fault_model;
                kf.seed = k.seed + s;
                kf.measure = std::min<Cycle>(k.measure, 2000);
                const auto cfg = setupConfig(kf, rates.back());
                const auto r = runNetworkExperiment(cfg);
                healthy &= r.sessionsLeakedAtEnd == 0 &&
                           r.pendingSetupsAtEnd == 0 &&
                           r.openConnsAtEnd == 0;
                reproducible &= networkResultDigest(r) ==
                                networkResultDigest(
                                    runNetworkExperiment(cfg));
            }
            std::printf("seed sweep: %llu faulted seeds\n",
                        static_cast<unsigned long long>(nSeeds));
            check(healthy, "every seed drains leak-free under faults");
            check(reproducible,
                  "every seed reproduces a bit-identical digest");
        }

        std::printf("setup_throughput checks: %s\n",
                    failures == 0 ? "ALL PASS" : "FAIL");
        return failures == 0 ? 0 : 2;
    });
}
