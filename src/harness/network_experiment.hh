/**
 * @file
 * Whole-network experiment harness with optional fault injection.
 *
 * The single-router harness reproduces the §5 switch study; this one
 * runs the *network*: a topology of MMR routers, one host interface
 * per node opening CBR streams (PCS/EPB) and best-effort datagram
 * flows (VCT/up*-down*), with a FaultInjector replaying a seed-derived
 * FaultPlan and a RecoveryManager re-establishing failed connections.
 * It is the engine behind bench/fault_recovery and the randomized
 * fault-schedule property tests, so everything it does is
 * deterministic in the config: same config -> bit-identical
 * NetworkExperimentResult, checkable via networkResultDigest().
 *
 * Component order per cycle: injector (applies due fault events),
 * recovery manager (launches due re-setups), network, invariant
 * checker (audits committed state) — hosts tick before the kernel
 * steps, as in the benches.
 */

#ifndef MMR_HARNESS_NETWORK_EXPERIMENT_HH
#define MMR_HARNESS_NETWORK_EXPERIMENT_HH

#include <cstdint>
#include <string>

#include "fault/fault_plan.hh"
#include "fault/recovery.hh"
#include "network/network.hh"
#include "workload/churn.hh"

namespace mmr
{

/**
 * Build a topology from a spec string: "mesh:4x4", "torus:4x4",
 * "ring:8", "star:8", "min:RADIX:STAGES", "fattree:RADIX",
 * "leafspine:SPINES:LEAVES" or "irregular:N:EXTRA:MAXDEG" (randomized
 * from @p seed).  Fatal, naming the spec, on malformed specs and on
 * sizes its generator cannot build (a ring of 2, an odd fat-tree
 * radix, a node count above the unsigned node ids, ...).
 */
Topology topologyFromSpec(const std::string &spec, std::uint64_t seed);

struct NetworkExperimentConfig
{
    std::string topologySpec = "mesh:4x4";
    NetworkConfig net; ///< net.seed is overridden by seed below

    unsigned cbrStreamsPerHost = 1;
    double cbrRateBps = 10e6;
    unsigned beFlowsPerHost = 1;
    double beRateBps = 2e6;

    Cycle warmupCycles = 5000;
    Cycle measureCycles = 20000;
    /** Post-measurement cycles letting in-flight tails land. */
    Cycle drainCycles = 2000;

    /**
     * Stochastic fault model (FaultPlan::random); all-zero rates mean
     * a fault-free run.  A zero horizon defaults to warmup + measure.
     */
    FaultModel faults;
    /** Explicit "down@C:A-B;..." events; when set they replace the
     * random link schedule (stochastic drop/corrupt rates still
     * apply). */
    std::string faultEvents;

    RecoveryConfig recovery;

    /**
     * End-to-end CBR delay budget in flit cycles (0 = no deadline
     * accounting): measured flits arriving later count as QoS
     * violations, reported as a violation rate next to the
     * acceptance ratio.
     */
    Cycle cbrDelayBudgetCycles = 0;

    /**
     * Session-churn population (workload/churn.hh): when enabled, a
     * ChurnEngine drives timed EPB setups, holding-time injection and
     * teardown on top of (or instead of — set cbrStreamsPerHost 0)
     * the static per-host streams.  Ticked with the hosts, so churn
     * runs are digest-identical serial vs sharded.
     */
    ChurnConfig churn;

    std::uint64_t seed = 42;
    unsigned invariantPeriod = 16;
};

struct NetworkExperimentResult
{
    unsigned nodes = 0;
    unsigned streamsRequested = 0;
    unsigned streamsAccepted = 0;
    unsigned streamsAlive = 0; ///< still established at the end
    double acceptance = 0.0;   ///< accepted / requested
    double aliveFraction = 0.0;

    double meanDelayCycles = 0.0;
    double meanJitterCycles = 0.0;
    double p99DelayCycles = 0.0;
    /** Worst per-connection mean delay over streams alive at the end
     * (the QoS-after-recovery figure of merit). */
    double maxAliveConnMeanDelay = 0.0;

    std::uint64_t flitsDelivered = 0;
    std::uint64_t flitsLost = 0;
    std::uint64_t flitsCorrupted = 0;
    std::uint64_t injectedFlits = 0;
    std::uint64_t droppedInRecovery = 0;
    std::uint64_t backloggedAtEnd = 0;

    std::uint64_t datagramsSent = 0;
    std::uint64_t datagramsDelivered = 0;
    std::uint64_t datagramsLost = 0;  ///< on failed/corrupted links
    std::uint64_t datagramDrops = 0;  ///< resource-exhaustion drops

    std::uint64_t linkDowns = 0;
    std::uint64_t linkUps = 0;
    std::uint64_t connectionsFailed = 0;
    std::uint64_t recoveryRetries = 0;
    std::uint64_t connectionsRecovered = 0;
    std::uint64_t connectionsAbandoned = 0;
    std::uint64_t probeTimeouts = 0;
    std::uint64_t probeMessagesLost = 0;

    /** QoS deadline accounting against cbrDelayBudgetCycles. */
    std::uint64_t qosFlits = 0;
    std::uint64_t qosViolations = 0;
    double qosViolationRate = 0.0;
    Cycle worstQosExcessCycles = 0;

    /** End-to-end CBR delay percentiles and per-hop wire time. */
    LatencySummary cbrLatency;
    LatencySummary linkTransitLatency;

    // ---- session churn (all zero unless churn.enabled) -------------
    std::uint64_t sessionsArrived = 0;
    std::uint64_t sessionsAdmitted = 0;
    std::uint64_t sessionsRejected = 0;
    std::uint64_t sessionsRejectedBusy = 0; ///< pool-full refusals
    std::uint64_t sessionsCompleted = 0;
    std::uint64_t sessionsAbandoned = 0; ///< lost to link faults
    /** admitted / (admitted + rejected) — the figure of merit. */
    double sessionAcceptance = 0.0;
    std::uint64_t sessionPeakLive = 0;
    std::uint64_t sessionPoolBytes = 0;
    /** Resident bytes per live session (the <= 64 B contract). */
    std::uint64_t sessionLiveBytes = 0;
    std::uint64_t sessionFlitsInjected = 0;
    std::uint64_t sessionFlitsDropped = 0;
    /** Pool slots still occupied after the drain (leak detector). */
    std::uint64_t sessionsLeakedAtEnd = 0;
    /** Connection recorders folded into retired aggregates. */
    std::uint64_t retiredConnRecorders = 0;
    /** Measured probe+ack setup latency of admitted sessions. */
    LatencySummary sessionSetupLatency;

    /** Probes still in flight / PCS entries still present at the very
     * end of the run (drain health; sessions should leave neither). */
    std::uint64_t pendingSetupsAtEnd = 0;
    std::uint64_t openConnsAtEnd = 0;

    std::uint64_t invariantChecks = 0;
    Cycle cycles = 0;
};

/** Build, run and tear down one network experiment. */
NetworkExperimentResult
runNetworkExperiment(const NetworkExperimentConfig &cfg);

/**
 * Order-sensitive FNV-1a digest over every field of the result; the
 * reproducibility contract is digest(run(cfg)) == digest(run(cfg)).
 */
std::uint64_t networkResultDigest(const NetworkExperimentResult &r);

} // namespace mmr

#endif // MMR_HARNESS_NETWORK_EXPERIMENT_HH
