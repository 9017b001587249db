#include "harness/network_experiment.hh"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <vector>

#include "base/logging.hh"
#include "fault/injector.hh"
#include "harness/fnv1a.hh"
#include "network/interface.hh"
#include "obs/flight_recorder.hh"
#include "sim/invariant.hh"
#include "sim/kernel.hh"

namespace mmr
{

namespace
{

/** Deterministic stream destination: host @p n's @p k-th stream. */
NodeId
dstFor(NodeId n, unsigned k, unsigned nodes)
{
    NodeId d = (n + 1 + 2 * k) % nodes;
    if (d == n)
        d = (d + 1) % nodes;
    return d;
}

} // namespace

Topology
topologyFromSpec(const std::string &spec, std::uint64_t seed)
{
    const auto colon = spec.find(':');
    if (colon == std::string::npos)
        mmr_fatal("topology spec '", spec, "' lacks ':' (try mesh:4x4)");
    const std::string kind = spec.substr(0, colon);
    const std::string args = spec.substr(colon + 1);

    // A positive decimal that fits an unsigned.  strtoull alone would
    // skip blanks, take a sign ("-1" wraps to a huge value) and let the
    // cast wrap anything above UINT_MAX.
    auto parse_uint = [&](const std::string &s) -> unsigned {
        unsigned long long v = 0;
        if (!s.empty() && s.find_first_not_of("0123456789") == s.npos)
            v = std::strtoull(s.c_str(), nullptr, 10);
        if (v == 0 || v > std::numeric_limits<unsigned>::max())
            mmr_fatal("bad number '", s, "' in topology spec '", spec,
                      "' (want a positive integer below 2^32)");
        return static_cast<unsigned>(v);
    };
    // The generators assert their bounds (a bug if a caller breaks
    // them); a spec that breaks one is the user's error.
    auto require = [&](bool ok, const char *what) {
        if (!ok)
            mmr_fatal("topology spec '", spec, "': ", what);
    };
    constexpr std::uint64_t kMaxNodes = std::numeric_limits<unsigned>::max();

    if (kind == "mesh" || kind == "torus") {
        const auto x = args.find('x');
        if (x == std::string::npos)
            mmr_fatal("'", kind, "' spec needs WxH: '", spec, "'");
        const unsigned w = parse_uint(args.substr(0, x));
        const unsigned h = parse_uint(args.substr(x + 1));
        require(std::uint64_t{w} * h <= kMaxNodes,
                "W x H overflows the node ids");
        if (kind == "mesh")
            return Topology::mesh2d(w, h);
        require(w > 2 && h > 2,
                "a torus needs W and H above 2 (no duplicate links)");
        return Topology::torus2d(w, h);
    }
    if (kind == "ring") {
        const unsigned n = parse_uint(args);
        require(n >= 3, "a ring needs at least 3 nodes");
        return Topology::ring(n);
    }
    if (kind == "star") {
        const unsigned leaves = parse_uint(args);
        require(leaves < kMaxNodes, "leaves + hub overflow the node ids");
        return Topology::star(leaves);
    }
    if (kind == "min") {
        const auto c = args.find(':');
        if (c == std::string::npos)
            mmr_fatal("'min' spec needs RADIX:STAGES: '", spec, "'");
        const unsigned radix = parse_uint(args.substr(0, c));
        const unsigned stages = parse_uint(args.substr(c + 1));
        require(radix >= 2, "MIN radix must be at least 2");
        require(stages >= 2, "a MIN needs at least 2 stages");
        // Topology::multistage's bound: radix^(stages-1) switches per
        // stage, at most 2^24.
        std::uint64_t width = 1;
        for (unsigned i = 1; i < stages; ++i) {
            require(width <= (1u << 24) / radix,
                    "MIN size overflows (radix^(stages-1) > 2^24)");
            width *= radix;
        }
        return Topology::multistage(radix, stages);
    }
    if (kind == "fattree") {
        const unsigned radix = parse_uint(args);
        require(radix >= 4 && radix % 2 == 0,
                "fat-tree radix must be even and at least 4");
        // radix^2 / 4 cores plus radix pods of radix switches.
        const std::uint64_t sq = std::uint64_t{radix} * radix;
        require(sq <= kMaxNodes && sq + sq / 4 <= kMaxNodes,
                "fat-tree size overflows the node ids");
        return Topology::fatTree(radix);
    }
    if (kind == "leafspine") {
        const auto c = args.find(':');
        if (c == std::string::npos)
            mmr_fatal("'leafspine' spec needs SPINES:LEAVES: '", spec,
                      "'");
        const unsigned spines = parse_uint(args.substr(0, c));
        const unsigned leaves = parse_uint(args.substr(c + 1));
        require(std::uint64_t{spines} + leaves <= kMaxNodes,
                "spines + leaves overflow the node ids");
        return Topology::leafSpine(spines, leaves);
    }
    if (kind == "irregular") {
        const auto c1 = args.find(':');
        const auto c2 =
            c1 == std::string::npos ? c1 : args.find(':', c1 + 1);
        if (c1 == std::string::npos || c2 == std::string::npos)
            mmr_fatal("'irregular' spec needs N:EXTRA:MAXDEG: '", spec,
                      "'");
        const unsigned n = parse_uint(args.substr(0, c1));
        const unsigned extra =
            parse_uint(args.substr(c1 + 1, c2 - c1 - 1));
        const unsigned maxdeg = parse_uint(args.substr(c2 + 1));
        require(n >= 2, "an irregular topology needs at least 2 nodes");
        require(maxdeg >= 2, "the degree bound must be at least 2");
        Rng trng(seed ^ 0x7090109fca17e5ULL);
        return Topology::irregular(n, extra, maxdeg, trng);
    }
    mmr_fatal("unknown topology kind '", kind, "' in '", spec,
              "' (mesh/torus/ring/star/irregular/min/fattree/"
              "leafspine)");
}

NetworkExperimentResult
runNetworkExperiment(const NetworkExperimentConfig &cfg)
{
    Topology topo = topologyFromSpec(cfg.topologySpec, cfg.seed);
    const unsigned nodes = topo.numNodes();

    NetworkConfig ncfg = cfg.net;
    ncfg.seed = cfg.seed;
    Network net(std::move(topo), ncfg);
    net.endToEnd().setQosBudget(TrafficClass::CBR,
                                cfg.cbrDelayBudgetCycles);

    // Black box for the fault machinery: a crash or an abandoned
    // recovery dumps the recent forensic events (kForensicTraceCats).
    // A caller that already installed a recorder (bench front ends)
    // keeps it.
    FlightRecorder blackBox;
    const bool ownBlackBox = FlightRecorder::active() == nullptr;
    if (ownBlackBox)
        blackBox.activate();

    // The fault plan spans the loaded portion of the run by default.
    FaultModel model = cfg.faults;
    if (model.horizon == 0)
        model.horizon = cfg.warmupCycles + cfg.measureCycles;
    FaultPlan plan;
    if (!cfg.faultEvents.empty()) {
        plan = FaultPlan::fromEvents(cfg.faultEvents, net.topology());
        plan.setModel(model);
    } else {
        plan = FaultPlan::random(net.topology(), model,
                                 cfg.seed ^ 0xfa17a11edfa57ULL);
    }

    FaultInjector injector(net, std::move(plan), cfg.seed + 101);
    RecoveryManager recovery(net, cfg.recovery, cfg.seed + 202);

    // The churn engine is ticked with the hosts (coordinator-serial);
    // its arrival schedule spans the loaded portion of the run, and
    // all its draws live on sub-RNGs of a dedicated seed tweak.
    std::unique_ptr<ChurnEngine> churn;
    if (cfg.churn.enabled)
        churn = std::make_unique<ChurnEngine>(
            net, cfg.churn, cfg.warmupCycles + cfg.measureCycles,
            cfg.seed ^ 0x5e5510bca5e1dULL);

    InvariantChecker checker;
    net.registerInvariants(checker, cfg.invariantPeriod);
    injector.registerInvariants(checker, cfg.invariantPeriod);
    recovery.registerInvariants(checker, cfg.invariantPeriod);
    if (churn)
        churn->registerInvariants(checker, cfg.invariantPeriod);

    Kernel kernel;
    kernel.add(&injector, "fault-injector");
    kernel.add(&recovery, "recovery-manager");
    kernel.add(&net, "network");
    kernel.add(&checker, "invariants");

    NetworkExperimentResult r;
    r.nodes = nodes;

    std::vector<std::unique_ptr<NetworkInterface>> hosts;
    hosts.reserve(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        hosts.push_back(
            std::make_unique<NetworkInterface>(net, n, cfg.seed + n));
        if (cfg.recovery.enabled)
            hosts.back()->attachRecovery(&recovery);
        for (unsigned k = 0; k < cfg.cbrStreamsPerHost; ++k) {
            ++r.streamsRequested;
            if (hosts.back()->openCbrStream(dstFor(n, k, nodes),
                                            cfg.cbrRateBps))
                ++r.streamsAccepted;
        }
        for (unsigned k = 0; k < cfg.beFlowsPerHost; ++k)
            hosts.back()->addBestEffortFlow(dstFor(n, k + 1, nodes),
                                            cfg.beRateBps);
    }

    auto run_for = [&](Cycle cycles) {
        for (Cycle c = 0; c < cycles; ++c) {
            for (auto &h : hosts)
                h->tick(kernel.now());
            if (churn)
                churn->tick(kernel.now());
            kernel.step();
        }
    };

    run_for(cfg.warmupCycles);
    net.endToEnd().startMeasurement(kernel.now());
    run_for(cfg.measureCycles);
    if (churn)
        churn->beginDrain(kernel.now());
    run_for(cfg.drainCycles);

    r.cycles = kernel.now();
    r.acceptance =
        r.streamsRequested
            ? static_cast<double>(r.streamsAccepted) /
                  static_cast<double>(r.streamsRequested)
            : 0.0;

    const MetricsRecorder &e2e = net.endToEnd();
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

    for (auto &h : hosts) {
        r.streamsAlive += h->establishedStreams();
        r.injectedFlits += h->injectedFlits();
        r.droppedInRecovery += h->flitsDroppedInRecovery();
        r.backloggedAtEnd += h->backloggedFlits();
        for (ConnId id : h->connections()) {
            const ConnectionRecorder *c = e2e.connection(id);
            if (c && c->delay().count() > 0)
                r.maxAliveConnMeanDelay =
                    std::max(r.maxAliveConnMeanDelay, c->delay().mean());
        }
    }
    r.aliveFraction =
        r.streamsAccepted
            ? static_cast<double>(r.streamsAlive) /
                  static_cast<double>(r.streamsAccepted)
            : 0.0;

    r.flitsDelivered = net.flitsDelivered();
    r.flitsLost = net.flitsLostToFailures();
    r.flitsCorrupted = net.flitsCorrupted();
    r.datagramsSent = net.datagramsSent();
    r.datagramsDelivered = net.datagramsDelivered();
    r.datagramsLost = net.datagramsLost();
    r.datagramDrops = net.datagramDrops();

    r.linkDowns = injector.linkDownsApplied();
    r.linkUps = injector.linkUpsApplied();
    r.connectionsFailed = net.connectionsFailed();
    r.recoveryRetries = recovery.retriesLaunched();
    r.connectionsRecovered = recovery.connectionsRecovered();
    r.connectionsAbandoned = recovery.connectionsAbandoned();
    r.probeTimeouts = net.probes().setupTimeouts();
    r.probeMessagesLost = net.probes().messagesLost();

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
    r.pendingSetupsAtEnd = net.pendingSetups();
    r.openConnsAtEnd = net.openConnectionCount();

    r.invariantChecks = checker.checksRun();
    if (ownBlackBox)
        blackBox.deactivate();
    return r;
}

std::uint64_t
networkResultDigest(const NetworkExperimentResult &r)
{
    Fnv1a h;
    h.addU64(r.nodes);
    h.addU64(r.streamsRequested);
    h.addU64(r.streamsAccepted);
    h.addU64(r.streamsAlive);
    h.addDouble(r.acceptance);
    h.addDouble(r.aliveFraction);
    h.addDouble(r.meanDelayCycles);
    h.addDouble(r.meanJitterCycles);
    h.addDouble(r.p99DelayCycles);
    h.addDouble(r.maxAliveConnMeanDelay);
    h.addU64(r.flitsDelivered);
    h.addU64(r.flitsLost);
    h.addU64(r.flitsCorrupted);
    h.addU64(r.injectedFlits);
    h.addU64(r.droppedInRecovery);
    h.addU64(r.backloggedAtEnd);
    h.addU64(r.datagramsSent);
    h.addU64(r.datagramsDelivered);
    h.addU64(r.datagramsLost);
    h.addU64(r.datagramDrops);
    h.addU64(r.linkDowns);
    h.addU64(r.linkUps);
    h.addU64(r.connectionsFailed);
    h.addU64(r.recoveryRetries);
    h.addU64(r.connectionsRecovered);
    h.addU64(r.connectionsAbandoned);
    h.addU64(r.probeTimeouts);
    h.addU64(r.probeMessagesLost);
    h.addU64(r.qosFlits);
    h.addU64(r.qosViolations);
    h.addDouble(r.qosViolationRate);
    h.addU64(r.worstQosExcessCycles);
    h.addU64(r.sessionsArrived);
    h.addU64(r.sessionsAdmitted);
    h.addU64(r.sessionsRejected);
    h.addU64(r.sessionsRejectedBusy);
    h.addU64(r.sessionsCompleted);
    h.addU64(r.sessionsAbandoned);
    h.addDouble(r.sessionAcceptance);
    h.addU64(r.sessionPeakLive);
    h.addU64(r.sessionLiveBytes);
    h.addU64(r.sessionFlitsInjected);
    h.addU64(r.sessionFlitsDropped);
    h.addU64(r.sessionsLeakedAtEnd);
    h.addU64(r.retiredConnRecorders);
    h.addU64(r.pendingSetupsAtEnd);
    h.addU64(r.openConnsAtEnd);
    for (const LatencySummary *s : {&r.cbrLatency,
                                    &r.linkTransitLatency,
                                    &r.sessionSetupLatency}) {
        h.addU64(s->count);
        h.addU64(s->p50);
        h.addU64(s->p90);
        h.addU64(s->p99);
        h.addU64(s->p999);
        h.addU64(s->maxCycles);
    }
    h.addU64(r.cycles);
    return h.value();
}

} // namespace mmr
