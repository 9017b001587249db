#include "harness/network_experiment.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "base/logging.hh"
#include "fault/injector.hh"
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

/** FNV-1a over raw field bytes (same shape as the single-router
 * digest: order-sensitive, canonicalized doubles). */
class Fnv1a
{
  public:
    void
    addU64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    }

    void
    addDouble(double v)
    {
        if (v == 0.0)
            v = 0.0; // merge -0.0 and 0.0 bit patterns
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        addU64(bits);
    }

    std::uint64_t value() const { return hash; }

  private:
    std::uint64_t hash = 0xcbf29ce484222325ULL;
};

} // namespace

Topology
topologyFromSpec(const std::string &spec, std::uint64_t seed)
{
    const auto colon = spec.find(':');
    if (colon == std::string::npos)
        mmr_fatal("topology spec '", spec, "' lacks ':' (try mesh:4x4)");
    const std::string kind = spec.substr(0, colon);
    const std::string args = spec.substr(colon + 1);

    auto parse_uint = [&](const std::string &s) -> unsigned {
        char *end = nullptr;
        const unsigned long v = std::strtoul(s.c_str(), &end, 10);
        if (end == s.c_str() || *end != '\0' || v == 0)
            mmr_fatal("bad number '", s, "' in topology spec '", spec,
                      "'");
        return static_cast<unsigned>(v);
    };

    if (kind == "mesh" || kind == "torus") {
        const auto x = args.find('x');
        if (x == std::string::npos)
            mmr_fatal("'", kind, "' spec needs WxH: '", spec, "'");
        const unsigned w = parse_uint(args.substr(0, x));
        const unsigned h = parse_uint(args.substr(x + 1));
        return kind == "mesh" ? Topology::mesh2d(w, h)
                              : Topology::torus2d(w, h);
    }
    if (kind == "ring")
        return Topology::ring(parse_uint(args));
    if (kind == "star")
        return Topology::star(parse_uint(args));
    if (kind == "min") {
        const auto c = args.find(':');
        if (c == std::string::npos)
            mmr_fatal("'min' spec needs RADIX:STAGES: '", spec, "'");
        return Topology::multistage(parse_uint(args.substr(0, c)),
                                    parse_uint(args.substr(c + 1)));
    }
    if (kind == "fattree")
        return Topology::fatTree(parse_uint(args));
    if (kind == "leafspine") {
        const auto c = args.find(':');
        if (c == std::string::npos)
            mmr_fatal("'leafspine' spec needs SPINES:LEAVES: '", spec,
                      "'");
        return Topology::leafSpine(parse_uint(args.substr(0, c)),
                                   parse_uint(args.substr(c + 1)));
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
