/**
 * @file
 * Bench binary: runs one named workload and prints one JSON line.
 * benchmark/run.py builds it, runs it as fresh processes and turns the
 * lines into end-to-end and per-layer metrics.
 *
 *   --mode=plain  end to end: timed calls into the public harness
 *                 (runSingleRouter / runNetworkExperiment), repeated
 *                 for --seconds, then kSetupRepeats set-up-only
 *                 replays for setup_s.  Nothing inside a call is
 *                 instrumented.
 *   --mode=trace  per layer: after one warm-up call, each untraced call
 *                 is followed by a traced run of the same experiment
 *                 whose layer boundaries are timed from the outside --
 *                 a timing wrapper around every Clocked the harness
 *                 registers, timers around the host-interface and churn
 *                 ticks, and one timestamp per cycle.  The traced run
 *                 must reproduce the untraced digest.
 *
 * Every layer is reached through public functions only.  Any digest
 * mismatch (between repeated calls, or traced vs untraced) exits 1.
 */

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/cli.hh"
#include "fault/injector.hh"
#include "harness/network_experiment.hh"
#include "harness/single_router.hh"
#include "network/interface.hh"
#include "obs/flight_recorder.hh"
#include "sim/invariant.hh"
#include "sim/kernel.hh"

namespace
{

using Clock = std::chrono::steady_clock;
using mmr::Cycle;

/** Set-up-only replays per plain-mode process. */
constexpr int kSetupRepeats = 15;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Bytes the allocator has handed out, all arenas, mmapped included. */
std::uint64_t
heapBytes()
{
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

void
expectSameDigest(std::uint64_t want, std::uint64_t got, const char *what)
{
    if (want != got)
        throw std::runtime_error(std::string(what) + " digest " + hex(got) +
                                 " differs from " + hex(want));
}

/** Flat JSON object writer; numbers keep every digit. */
class JsonLine
{
  public:
    static std::string
    number(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }

    void num(const std::string &key, double v) { raw(key, number(v)); }

    void
    count(const std::string &key, std::uint64_t v)
    {
        raw(key, std::to_string(v));
    }

    void str(const std::string &key, const std::string &v)
    {
        raw(key, "\"" + v + "\"");
    }

    void
    object(const std::string &key, const JsonLine &o)
    {
        raw(key, o.text());
    }

    /** A JSON array of already-encoded values. */
    void
    list(const std::string &key, const std::vector<std::string> &items)
    {
        std::string a = "[";
        for (const std::string &i : items)
            a += (a.size() > 1 ? "," : "") + i;
        raw(key, a + "]");
    }

    std::string text() const { return "{" + body + "}"; }

  private:
    void
    raw(const std::string &key, const std::string &value)
    {
        if (!body.empty())
            body += ",";
        body += "\"" + key + "\":" + value;
    }

    std::string body;
};

/** One untraced harness call. */
struct Call
{
    std::uint64_t digest = 0;
    Cycle cycles = 0;
    double wholeS = 0.0; ///< host seconds of the whole call
    double loopS = 0.0;  ///< of which the cycle loop (router_fig4 only)
    double setupsPerSec = 0.0; ///< probe-decided setups / wholeS
    JsonLine model;      ///< the model outputs the benchmark pins
};

/** How one workload is run; drive() holds the loop they share. */
struct WorkloadOps
{
    std::function<Call()> call;
    /** Host seconds from config to first simulated cycle. */
    std::function<double()> setupOnly;
    /** Traced run of the config @p untraced ran; per-layer metrics. */
    std::function<JsonLine(const Call &untraced)> traced;
};

// ---------------------------------------------------------------------
// Workloads.  Each call is one whole experiment of about a second on
// the reference host; run.py repeats calls and reports medians.
// --quick shrinks the cycle counts for the correctness gate.
// ---------------------------------------------------------------------

/** router_fig4: the paper's Fig. 4 point near saturation. */
mmr::ExperimentConfig
fig4Config(std::uint64_t seed, bool quick)
{
    mmr::ExperimentConfig c;
    c.router.numPorts = 8;
    c.router.vcsPerPort = 256;
    c.router.scheduler = mmr::SchedulerKind::BiasedPriority;
    c.router.candidates = 8;
    c.offeredLoad = 0.90;
    c.warmupCycles = quick ? 2000 : 20000;
    c.measureCycles = quick ? 20000 : 200000;
    c.seed = seed;
    return c;
}

/** The three network workloads (see benchmark/README.md). */
mmr::NetworkExperimentConfig
netConfig(const std::string &name, std::uint64_t seed, bool quick)
{
    mmr::NetworkExperimentConfig c;
    c.seed = seed;
    if (name == "net_min256" || name == "net_min256_x4") {
        c.topologySpec = "min:4:4";
        // 16 VCs: with 8, the four PCS streams per host hold nearly
        // every link VC, datagrams back up without bound and the cost
        // of a cycle grows through the run.
        c.net.router.vcsPerPort = 16;
        c.net.router.candidates = 4;
        c.net.shards = name == "net_min256_x4" ? 4 : 1;
        c.cbrStreamsPerHost = 4;
        c.cbrRateBps = 40 * mmr::kMbps;
        c.beFlowsPerHost = 1;
        c.beRateBps = 20 * mmr::kMbps;
        c.warmupCycles = quick ? 100 : 500;
        c.measureCycles = quick ? 400 : 2000;
        c.drainCycles = quick ? 100 : 500;
        return c;
    }
    if (name == "churn_mesh8_faults") {
        c.topologySpec = "mesh:8x8";
        c.net.router.vcsPerPort = 32;
        c.net.router.candidates = 8;
        c.cbrStreamsPerHost = 0;
        c.beFlowsPerHost = 0;
        c.churn.enabled = true;
        c.churn.workload.arrivalsPer1k = 1000;
        c.churn.workload.holdingMeanCycles = 900;
        c.churn.maxLiveSessions = 4096;
        c.faults = mmr::parseFaultModel("fail=0.4,repair=1200,drop=0.02");
        c.warmupCycles = 500;
        c.measureCycles = quick ? 2000 : 10000;
        // Outlasts the 1200-cycle mean repair so every teardown lands.
        c.drainCycles = 4000;
        return c;
    }
    throw std::invalid_argument("unknown workload '" + name +
                                "' (router_fig4, net_min256, "
                                "net_min256_x4, churn_mesh8_faults)");
}

// ---------------------------------------------------------------------
// Outside-in tracing
// ---------------------------------------------------------------------

/** Times a Clocked's two phases; registered with the kernel in its
 * place. */
class TimedComponent final : public mmr::Clocked
{
  public:
    void wrap(mmr::Clocked &c) { inner = &c; }

    void
    evaluate(Cycle now) override
    {
        const auto t0 = Clock::now();
        inner->evaluate(now);
        evalS += secondsSince(t0);
    }

    void
    advance(Cycle now) override
    {
        const auto t0 = Clock::now();
        inner->advance(now);
        advS += secondsSince(t0);
    }

    double busy() const { return evalS + advS; }

    double evalS = 0.0;
    double advS = 0.0;

  private:
    mmr::Clocked *inner = nullptr;
};

/** Wall time of every simulated cycle, from one tick to the next. */
class CycleClock
{
  public:
    void reserve(Cycle cycles) { ns.reserve(cycles); }

    void
    tick(Clock::time_point t)
    {
        if (started)
            ns.push_back(static_cast<std::uint32_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t - last)
                    .count()));
        started = true;
        last = t;
    }

    double
    percentile(double q) const
    {
        if (ns.empty())
            return 0.0;
        std::vector<std::uint32_t> v = ns;
        const auto k = static_cast<std::size_t>(
            q * static_cast<double>(v.size() - 1));
        std::nth_element(v.begin(), v.begin() + k, v.end());
        return v[k];
    }

  private:
    std::vector<std::uint32_t> ns;
    Clock::time_point last{};
    bool started = false;
};

/** Busy seconds of one traced loop, by layer. */
struct LayerTimes
{
    double loop = 0.0;
    double traffic = 0.0;
    double router = 0.0;
    double netEvaluate = 0.0;
    double netAdvance = 0.0;
    double churn = 0.0;
    double injector = 0.0;
    double recovery = 0.0;
    double invariants = 0.0;

    double
    attributed() const
    {
        return traffic + router + netEvaluate + netAdvance + churn +
               injector + recovery + invariants;
    }
};

/** Host seconds of the set-up phases, from config to first cycle. */
struct SetupTimes
{
    double topology = 0.0;
    double network = 0.0;
    double streams = 0.0;
    double churn = 0.0;

    double total() const { return topology + network + streams + churn; }
};

/** Router counters summed over every router of a run. */
struct RouterTotals
{
    std::uint64_t forwarded = 0;
    std::uint64_t reconfigs = 0;
    std::uint64_t injectRejects = 0;
    std::uint64_t bypassHits = 0;
    std::uint64_t bypassMisses = 0;
    std::uint64_t controlDrops = 0;
    double matched = 0.0;   ///< grants issued
    double grantable = 0.0; ///< ports x scheduling passes

    void
    add(const mmr::MmrRouter &r)
    {
        forwarded += r.flitsForwarded();
        reconfigs += r.reconfigs().reconfigurations();
        injectRejects += r.injectionRejects();
        bypassHits += r.bypassHits();
        bypassMisses += r.bypassMisses();
        controlDrops += r.controlDrops();
        matched += r.matchingSize().sum();
        grantable += static_cast<double>(r.matchingSize().count()) *
                     r.config().numPorts;
    }
};

/** Probe-decided setups: pool-full refusals never launched a probe. */
std::uint64_t
decidedSetups(const mmr::NetworkExperimentResult &r)
{
    return r.sessionsAdmitted + r.sessionsRejected - r.sessionsRejectedBusy;
}

/** Everything one traced run measured. */
struct TracedRun
{
    LayerTimes times;
    SetupTimes setup;
    CycleClock cycleClock;
    RouterTotals routers;
    unsigned numRouters = 1;
    std::uint64_t bytesPerRouter = 0; ///< heap bytes per router built
    /** Exact model counts in the network harness's result shape;
     * router_fig4 fills the fields a single router has. */
    mmr::NetworkExperimentResult counts;
};

/**
 * The per-layer metrics (BENCHMARK.json per_layer).  Every workload
 * reports every name; a layer the workload does not run reads 0.
 * @p untraced_loop is the loop time of the same config untraced.
 */
JsonLine
layerMetrics(const TracedRun &t, double untraced_loop, double setups_per_sec)
{
    const LayerTimes &lt = t.times;
    const SetupTimes &st = t.setup;
    const RouterTotals &rt = t.routers;
    const mmr::NetworkExperimentResult &n = t.counts;
    const double c = static_cast<double>(n.cycles);
    JsonLine o;
    o.num("loop.busy_s", lt.loop);
    o.num("trace.overhead", lt.loop / untraced_loop - 1.0);
    o.num("trace.coverage", lt.attributed() / lt.loop);
    o.num("kernel.cycle_ns.p50", t.cycleClock.percentile(0.50));
    o.num("kernel.cycle_ns.p99", t.cycleClock.percentile(0.99));
    o.num("traffic.busy_share", lt.traffic / lt.loop);
    o.num("router.busy_share", lt.router / lt.loop);
    o.num("network.evaluate.busy_share", lt.netEvaluate / lt.loop);
    o.num("network.advance.busy_share", lt.netAdvance / lt.loop);
    o.num("churn.busy_share", lt.churn / lt.loop);
    o.num("fault.injector.busy_share", lt.injector / lt.loop);
    o.num("fault.recovery.busy_share", lt.recovery / lt.loop);
    o.num("invariants.busy_share", lt.invariants / lt.loop);
    o.num("router.ns_per_router_cycle",
          1e9 * (lt.router + lt.netEvaluate + lt.netAdvance) /
              (c * t.numRouters));
    o.num("invariants.ns_per_cycle", 1e9 * lt.invariants / c);
    o.num("setup.total_s", st.total());
    o.num("setup.topology_share", st.topology / st.total());
    o.num("setup.network_share", st.network / st.total());
    o.num("setup.streams_share", st.streams / st.total());
    o.num("setup.churn_share", st.churn / st.total());
    o.count("router.flits_forwarded", rt.forwarded);
    o.num("router.match_fill", ratio(rt.matched, rt.grantable));
    o.count("router.reconfigs", rt.reconfigs);
    o.count("router.inject_rejects", rt.injectRejects);
    o.num("router.bypass_hit_ratio",
          ratio(static_cast<double>(rt.bypassHits),
                static_cast<double>(rt.bypassHits + rt.bypassMisses)));
    o.count("router.control_drops", rt.controlDrops);
    o.count("network.flits_delivered", n.flitsDelivered);
    o.num("network.datagram_delivery_ratio",
          ratio(static_cast<double>(n.datagramsDelivered),
                static_cast<double>(n.datagramsSent)));
    o.count("network.datagram_drops", n.datagramDrops);
    o.count("traffic.backlogged_end", n.backloggedAtEnd);
    o.count("churn.decided", decidedSetups(n));
    o.num("churn.acceptance", n.sessionAcceptance);
    o.count("churn.rejected_busy", n.sessionsRejectedBusy);
    o.count("churn.abandoned", n.sessionsAbandoned);
    o.num("churn.setups_per_sec", setups_per_sec);
    o.count("churn.pool_bytes", n.sessionPoolBytes);
    o.count("probe.timeouts", n.probeTimeouts);
    o.count("probe.messages_lost", n.probeMessagesLost);
    o.count("fault.link_downs", n.linkDowns);
    o.count("fault.connections_failed", n.connectionsFailed);
    o.count("fault.recovered", n.connectionsRecovered);
    o.count("invariants.checks", n.invariantChecks);
    o.count("mem.bytes_per_router", t.bytesPerRouter);
    return o;
}

// ---------------------------------------------------------------------
// router_fig4
// ---------------------------------------------------------------------

WorkloadOps
fig4Ops(const mmr::ExperimentConfig &cfg)
{
    WorkloadOps ops;
    ops.call = [cfg] {
        const auto t0 = Clock::now();
        const mmr::ExperimentResult r = mmr::runSingleRouter(cfg);
        Call c;
        c.wholeS = secondsSince(t0);
        c.loopS = r.profile.wallSeconds;
        c.digest = mmr::resultDigest(r);
        c.cycles = r.profile.cycles;
        c.model.num("mean_delay_cycles", r.meanDelayCycles);
        c.model.num("p99_delay_cycles", r.p99DelayCycles);
        c.model.num("utilization", r.utilization);
        c.model.count("flits_delivered", r.flitsDelivered);
        c.model.count("connections", r.connections);
        return c;
    };

    // Set-up is what runSingleRouter does before its first cycle.
    ops.setupOnly = [cfg] {
        mmr::ExperimentConfig c = cfg;
        c.warmupCycles = 0;
        c.measureCycles = 0;
        const auto t0 = Clock::now();
        const mmr::ExperimentResult r = mmr::runSingleRouter(c);
        return secondsSince(t0) - r.profile.wallSeconds;
    };

    // Traced run: the kernel's own per-component attribution (router,
    // invariants; traffic injection is the rest of the loop, so the
    // attribution covers the loop by construction), plus a period-1
    // audit hook timestamping the end of every cycle.  The kernel
    // charges the hook to "invariants"; the hook times itself and that
    // time is taken back out.
    ops.traced = [cfg](const Call &untraced) {
        mmr::ExperimentConfig tcfg = cfg;
        tcfg.obs.profileComponents = true;
        TracedRun t;
        const std::uint64_t heap0 = heapBytes();
        const auto c0 = Clock::now();
        mmr::SingleRouterExperiment exp(tcfg);
        t.setup.network = secondsSince(c0);
        t.bytesPerRouter = heapBytes() - heap0;

        t.cycleClock.reserve(cfg.warmupCycles + cfg.measureCycles);
        std::uint64_t hookRuns = 0;
        double hookS = 0.0;
        exp.invariants().add("bench.cycle-clock", [&](Cycle) {
            const auto h0 = Clock::now();
            t.cycleClock.tick(h0);
            ++hookRuns;
            hookS += secondsSince(h0);
        });
        const auto r0 = Clock::now();
        const mmr::ExperimentResult tr = exp.run();
        const double runS = secondsSince(r0);
        expectSameDigest(untraced.digest, mmr::resultDigest(tr),
                         "traced run");

        LayerTimes &lt = t.times;
        lt.loop = tr.profile.wallSeconds;
        for (const auto &[name, s] : tr.profile.componentSeconds) {
            if (name == "router")
                lt.router += s;
            else if (name == "invariants")
                lt.invariants += s - hookS;
        }
        lt.traffic = lt.loop - lt.router - lt.invariants - hookS;
        t.setup.streams = runS - lt.loop;

        t.routers.add(exp.router());
        t.counts.cycles = tr.profile.cycles;
        t.counts.flitsDelivered = tr.flitsDelivered;
        t.counts.invariantChecks = exp.invariants().checksRun() - hookRuns;
        return layerMetrics(t, untraced.loopS, 0.0);
    };
    return ops;
}

// ---------------------------------------------------------------------
// Network workloads
// ---------------------------------------------------------------------

/** Deterministic stream destination (as the harness draws it). */
mmr::NodeId
dstFor(mmr::NodeId n, unsigned k, unsigned nodes)
{
    mmr::NodeId d = (n + 1 + 2 * k) % nodes;
    if (d == n)
        d = (d + 1) % nodes;
    return d;
}

/**
 * The objects runNetworkExperiment builds, built with the same public
 * calls in the same order, so running it reproduces the harness's
 * digest (the trace mode checks that).  It exists so the benchmark can
 * time the set-up phases and the per-cycle layer boundaries that the
 * harness call hides.  With @p time_layers false it registers the
 * components themselves and its loop reads no clock per cycle: that run
 * is the untraced baseline trace.overhead is measured against.
 */
class NetRig
{
  public:
    NetRig(const mmr::NetworkExperimentConfig &c, bool time_layers)
        : cfg(c), timed(time_layers)
    {
        using namespace mmr;
        const std::uint64_t heap0 = heapBytes();
        auto t = Clock::now();
        Topology topo = topologyFromSpec(cfg.topologySpec, cfg.seed);
        nodes = topo.numNodes();
        setup.topology = secondsSince(t);

        t = Clock::now();
        NetworkConfig ncfg = cfg.net;
        ncfg.seed = cfg.seed;
        net = std::make_unique<Network>(std::move(topo), ncfg);
        bytesPerRouter = (heapBytes() - heap0) / nodes;
        net->endToEnd().setQosBudget(TrafficClass::CBR,
                                     cfg.cbrDelayBudgetCycles);
        ownBlackBox = FlightRecorder::active() == nullptr;
        if (ownBlackBox)
            blackBox.activate();
        FaultModel model = cfg.faults;
        if (model.horizon == 0)
            model.horizon = cfg.warmupCycles + cfg.measureCycles;
        FaultPlan plan;
        if (!cfg.faultEvents.empty()) {
            plan = FaultPlan::fromEvents(cfg.faultEvents, net->topology());
            plan.setModel(model);
        } else {
            plan = FaultPlan::random(net->topology(), model,
                                     cfg.seed ^ 0xfa17a11edfa57ULL);
        }
        injector = std::make_unique<FaultInjector>(*net, std::move(plan),
                                                   cfg.seed + 101);
        recovery = std::make_unique<RecoveryManager>(*net, cfg.recovery,
                                                     cfg.seed + 202);
        setup.network = secondsSince(t);

        t = Clock::now();
        if (cfg.churn.enabled)
            churn = std::make_unique<ChurnEngine>(
                *net, cfg.churn, cfg.warmupCycles + cfg.measureCycles,
                cfg.seed ^ 0x5e5510bca5e1dULL);
        setup.churn = secondsSince(t);

        t = Clock::now();
        net->registerInvariants(checker, cfg.invariantPeriod);
        injector->registerInvariants(checker, cfg.invariantPeriod);
        recovery->registerInvariants(checker, cfg.invariantPeriod);
        if (churn)
            churn->registerInvariants(checker, cfg.invariantPeriod);
        kernel.registerInvariants(checker);
        if (timed) {
            tInjector.wrap(*injector);
            tRecovery.wrap(*recovery);
            tNet.wrap(*net);
            tChecker.wrap(checker);
            kernel.add(&tInjector, "fault-injector");
            kernel.add(&tRecovery, "recovery-manager");
            kernel.add(&tNet, "network");
            kernel.add(&tChecker, "invariants");
        } else {
            kernel.add(injector.get(), "fault-injector");
            kernel.add(recovery.get(), "recovery-manager");
            kernel.add(net.get(), "network");
            kernel.add(&checker, "invariants");
        }
        setup.network += secondsSince(t);

        t = Clock::now();
        hosts.reserve(nodes);
        for (NodeId n = 0; n < nodes; ++n) {
            hosts.push_back(
                std::make_unique<NetworkInterface>(*net, n, cfg.seed + n));
            if (cfg.recovery.enabled)
                hosts.back()->attachRecovery(recovery.get());
            for (unsigned k = 0; k < cfg.cbrStreamsPerHost; ++k) {
                ++streamsRequested;
                if (hosts.back()->openCbrStream(dstFor(n, k, nodes),
                                                cfg.cbrRateBps))
                    ++streamsAccepted;
            }
            for (unsigned k = 0; k < cfg.beFlowsPerHost; ++k)
                hosts.back()->addBestEffortFlow(dstFor(n, k + 1, nodes),
                                                cfg.beRateBps);
        }
        setup.streams = secondsSince(t);
    }

    ~NetRig()
    {
        if (ownBlackBox)
            blackBox.deactivate();
    }

    NetRig(const NetRig &) = delete;
    NetRig &operator=(const NetRig &) = delete;

    Cycle
    totalCycles() const
    {
        return cfg.warmupCycles + cfg.measureCycles + cfg.drainCycles;
    }

    /** Run warm-up, measurement and drain; a timed rig times every
     * layer and stamps every cycle into @p cc, an untimed one only the
     * whole loop. */
    LayerTimes
    run(CycleClock &cc)
    {
        LayerTimes lt;
        const auto loopStart = Clock::now();
        auto runFor = [&](Cycle cycles) {
            for (Cycle i = 0; i < cycles; ++i) {
                if (!timed) {
                    for (auto &h : hosts)
                        h->tick(kernel.now());
                    if (churn)
                        churn->tick(kernel.now());
                    kernel.step();
                    continue;
                }
                const auto t0 = Clock::now();
                cc.tick(t0);
                for (auto &h : hosts)
                    h->tick(kernel.now());
                const auto t1 = Clock::now();
                lt.traffic +=
                    std::chrono::duration<double>(t1 - t0).count();
                if (churn) {
                    churn->tick(kernel.now());
                    lt.churn += secondsSince(t1);
                }
                kernel.step();
            }
        };
        runFor(cfg.warmupCycles);
        net->endToEnd().startMeasurement(kernel.now());
        runFor(cfg.measureCycles);
        if (churn)
            churn->beginDrain(kernel.now());
        runFor(cfg.drainCycles);
        if (timed)
            cc.tick(Clock::now());
        lt.loop = secondsSince(loopStart);
        lt.netEvaluate = tNet.evalS;
        lt.netAdvance = tNet.advS;
        lt.injector = tInjector.busy();
        lt.recovery = tRecovery.busy();
        lt.invariants = tChecker.busy();
        return lt;
    }

    /** The harness's result, harvested the way the harness does. */
    mmr::NetworkExperimentResult
    result() const
    {
        using namespace mmr;
        NetworkExperimentResult r;
        r.nodes = nodes;
        r.streamsRequested = streamsRequested;
        r.streamsAccepted = streamsAccepted;
        r.cycles = kernel.now();
        r.acceptance = r.streamsRequested
                           ? static_cast<double>(r.streamsAccepted) /
                                 static_cast<double>(r.streamsRequested)
                           : 0.0;

        const MetricsRecorder &e2e = net->endToEnd();
        r.meanDelayCycles = e2e.meanDelayCycles();
        r.meanJitterCycles = e2e.meanJitterCycles();
        r.p99DelayCycles = e2e.delayPercentile(0.99);
        const QosCounters &q = e2e.qos(TrafficClass::CBR);
        r.qosFlits = q.flits;
        r.qosViolations = q.violations;
        r.qosViolationRate = q.violationRate();
        r.worstQosExcessCycles = q.worstExcessCycles;
        r.cbrLatency = e2e.classHistogram(TrafficClass::CBR).summarize();
        r.linkTransitLatency =
            e2e.stageHistogram(LatencyStage::LinkTransit).summarize();

        for (const auto &h : hosts) {
            r.streamsAlive += h->establishedStreams();
            r.injectedFlits += h->injectedFlits();
            r.droppedInRecovery += h->flitsDroppedInRecovery();
            r.backloggedAtEnd += h->backloggedFlits();
            for (ConnId id : h->connections()) {
                const ConnectionRecorder *c = e2e.connection(id);
                if (c && c->delay().count() > 0)
                    r.maxAliveConnMeanDelay = std::max(
                        r.maxAliveConnMeanDelay, c->delay().mean());
            }
        }
        r.aliveFraction = r.streamsAccepted
                              ? static_cast<double>(r.streamsAlive) /
                                    static_cast<double>(r.streamsAccepted)
                              : 0.0;

        r.flitsDelivered = net->flitsDelivered();
        r.flitsLost = net->flitsLostToFailures();
        r.flitsCorrupted = net->flitsCorrupted();
        r.datagramsSent = net->datagramsSent();
        r.datagramsDelivered = net->datagramsDelivered();
        r.datagramsLost = net->datagramsLost();
        r.datagramDrops = net->datagramDrops();

        r.linkDowns = injector->linkDownsApplied();
        r.linkUps = injector->linkUpsApplied();
        r.connectionsFailed = net->connectionsFailed();
        r.recoveryRetries = recovery->retriesLaunched();
        r.connectionsRecovered = recovery->connectionsRecovered();
        r.connectionsAbandoned = recovery->connectionsAbandoned();
        r.probeTimeouts = net->probes().setupTimeouts();
        r.probeMessagesLost = net->probes().messagesLost();

        if (churn) {
            const SessionLedger &sl = churn->ledger();
            r.sessionsArrived = sl.arrived;
            r.sessionsAdmitted = sl.admitted;
            r.sessionsRejected = sl.rejected;
            r.sessionsRejectedBusy = sl.rejectedBusy;
            r.sessionsCompleted = sl.completed;
            r.sessionsAbandoned = sl.abandoned;
            r.sessionAcceptance = sl.acceptanceRatio();
            r.sessionPeakLive = churn->peakLiveSessions();
            r.sessionPoolBytes = churn->poolBytes();
            r.sessionLiveBytes = ChurnEngine::liveSessionBytes();
            r.sessionFlitsInjected = churn->flitsInjected();
            r.sessionFlitsDropped = churn->flitsDroppedBackpressure();
            r.sessionsLeakedAtEnd = churn->liveSessions();
            r.retiredConnRecorders = e2e.retiredConnections();
            r.sessionSetupLatency = churn->setupLatency().summarize();
        }
        r.pendingSetupsAtEnd = net->pendingSetups();
        r.openConnsAtEnd = net->openConnectionCount();
        r.invariantChecks = checker.checksRun();
        return r;
    }

    RouterTotals
    routerTotals() const
    {
        RouterTotals rt;
        for (mmr::NodeId n = 0; n < nodes; ++n)
            rt.add(net->routerAt(n));
        return rt;
    }

    SetupTimes setup;
    std::uint64_t bytesPerRouter = 0; ///< heap bytes of Network / nodes
    unsigned nodes = 0;

  private:
    const mmr::NetworkExperimentConfig cfg;
    const bool timed;
    std::unique_ptr<mmr::Network> net;
    mmr::FlightRecorder blackBox;
    bool ownBlackBox = false;
    std::unique_ptr<mmr::FaultInjector> injector;
    std::unique_ptr<mmr::RecoveryManager> recovery;
    std::unique_ptr<mmr::ChurnEngine> churn;
    mmr::InvariantChecker checker;
    TimedComponent tInjector;
    TimedComponent tRecovery;
    TimedComponent tNet;
    TimedComponent tChecker;
    mmr::Kernel kernel;
    std::vector<std::unique_ptr<mmr::NetworkInterface>> hosts;
    unsigned streamsRequested = 0;
    unsigned streamsAccepted = 0;
};

WorkloadOps
netOps(const mmr::NetworkExperimentConfig &cfg)
{
    WorkloadOps ops;
    ops.call = [cfg] {
        const auto t0 = Clock::now();
        const mmr::NetworkExperimentResult r =
            mmr::runNetworkExperiment(cfg);
        Call c;
        c.wholeS = secondsSince(t0);
        c.digest = mmr::networkResultDigest(r);
        c.cycles = r.cycles;
        c.setupsPerSec = static_cast<double>(decidedSetups(r)) / c.wholeS;
        c.model.count("flits_delivered", r.flitsDelivered);
        c.model.count("datagrams_sent", r.datagramsSent);
        c.model.count("datagrams_delivered", r.datagramsDelivered);
        c.model.num("stream_acceptance", r.acceptance);
        c.model.num("mean_delay_cycles", r.meanDelayCycles);
        c.model.num("p99_delay_cycles", r.p99DelayCycles);
        c.model.count("setups_decided", decidedSetups(r));
        c.model.num("session_acceptance", r.sessionAcceptance);
        c.model.count("setup_p50_cycles", r.sessionSetupLatency.p50);
        c.model.count("setup_p99_cycles", r.sessionSetupLatency.p99);
        c.model.count("leaked_sessions", r.sessionsLeakedAtEnd);
        c.model.count("pending_setups", r.pendingSetupsAtEnd);
        c.model.count("open_connections", r.openConnsAtEnd);
        return c;
    };

    ops.setupOnly = [cfg] {
        const auto t0 = Clock::now();
        const NetRig rig(cfg, false);
        return secondsSince(t0);
    };

    // The untraced baseline is the same replica run untimed, so both
    // loops exclude set-up, harvest and teardown.  The two runs swap
    // order every call, so neither always follows the other's teardown.
    ops.traced = [cfg, calls = 0](const Call &untraced) mutable {
        auto baseline = [&] {
            NetRig plain(cfg, false);
            CycleClock unused;
            const double loop = plain.run(unused).loop;
            expectSameDigest(untraced.digest,
                             mmr::networkResultDigest(plain.result()),
                             "untimed replica");
            return loop;
        };
        const bool baselineFirst = calls++ % 2 == 0;
        double baselineLoop = baselineFirst ? baseline() : 0.0;
        TracedRun t;
        {
            NetRig rig(cfg, true);
            t.cycleClock.reserve(rig.totalCycles());
            t.times = rig.run(t.cycleClock);
            t.counts = rig.result();
            expectSameDigest(untraced.digest,
                             mmr::networkResultDigest(t.counts),
                             "traced run");
            t.setup = rig.setup;
            t.routers = rig.routerTotals();
            t.numRouters = rig.nodes;
            t.bytesPerRouter = rig.bytesPerRouter;
        }
        if (!baselineFirst)
            baselineLoop = baseline();
        return layerMetrics(t, baselineLoop, untraced.setupsPerSec);
    };
    return ops;
}

/**
 * Repeat untraced calls (each followed, in trace mode, by a traced run)
 * until @p seconds have passed; then, in plain mode, the set-up-only
 * replays.  Prints the process's one JSON line.
 */
void
drive(const std::string &name, const WorkloadOps &ops, bool trace,
      double seconds)
{
    std::vector<std::string> wholes, setupsPerSec, layers;
    auto record = [&](const Call &c) {
        wholes.push_back(JsonLine::number(c.wholeS));
        setupsPerSec.push_back(JsonLine::number(c.setupsPerSec));
        if (trace)
            layers.push_back(ops.traced(c).text());
    };
    const auto start = Clock::now();
    // Every later call must repeat the first call's digest.  In trace
    // mode the first call only warms the process, so each untraced call
    // is as warm as the traced run it is compared with.
    const Call first = ops.call();
    if (!trace)
        record(first);
    while (wholes.empty() || secondsSince(start) < seconds) {
        const Call c = ops.call();
        expectSameDigest(first.digest, c.digest, "repeated call");
        record(c);
    }

    JsonLine out;
    out.str("workload", name);
    out.str("digest", hex(first.digest));
    out.count("cycles", first.cycles);
    out.object("model", first.model);
    out.list("whole_s", wholes);
    out.list("setups_per_sec", setupsPerSec);
    if (trace) {
        out.list("layers", layers);
    } else {
        std::vector<std::string> setups;
        for (int i = 0; i < kSetupRepeats; ++i)
            setups.push_back(JsonLine::number(ops.setupOnly()));
        out.list("setup_s", setups);
    }
    std::printf("%s\n", out.text().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        mmr::Cli cli;
        cli.flag("workload", "router_fig4",
                 "router_fig4 | net_min256 | net_min256_x4 | "
                 "churn_mesh8_faults");
        cli.flag("seed", "42", "workload seed");
        cli.flag("mode", "plain", "plain (end to end) | trace (per layer)");
        cli.flag("quick", "0", "tiny cycle counts (correctness gate)");
        cli.flag("seconds", "0",
                 "repeat the call until this much time has passed");
        if (!cli.parse(argc, argv))
            return 0;
        if (!mmr::invariant::enabled()) {
            std::fprintf(stderr, "mmr_bench: the benchmark measures the "
                                 "default build, with invariants on\n");
            return 2;
        }
        const std::string name = cli.str("workload");
        const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
        const bool quick = cli.boolean("quick");
        const std::string mode = cli.str("mode");
        if (mode != "plain" && mode != "trace")
            throw std::invalid_argument("--mode must be plain or trace");
        drive(name,
              name == "router_fig4" ? fig4Ops(fig4Config(seed, quick))
                                    : netOps(netConfig(name, seed, quick)),
              mode == "trace", cli.real("seconds"));
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mmr_bench: %s\n", e.what());
        return 1;
    }
}
