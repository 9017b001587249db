/**
 * @file
 * The §5 simulation study, as a reusable harness.
 *
 * "The following experiments represent an 8x8 router with 256 virtual
 * channels/input port, 1.24 Gbps physical links and 128-bit flits. ...
 * Connections were randomly selected from the set (64 Kbps ... 120
 * Mbps) and assigned to random input and output ports on the router.
 * The offered load is computed as the percentage of switch bandwidth
 * demanded by all connections through the router."
 *
 * The harness builds such a workload at a target offered load (with
 * admission control on both the input and the output link), runs a
 * warm-up followed by a measured steady-state window, and reports the
 * paper's metrics: mean switch delay (flit cycles and microseconds),
 * mean jitter (flit cycles), and switch utilization.  Extensions add
 * VBR and best-effort shares for the hybrid-traffic benches.
 */

#ifndef MMR_HARNESS_SINGLE_ROUTER_HH
#define MMR_HARNESS_SINGLE_ROUTER_HH

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "metrics/recorder.hh"
#include "obs/obs_config.hh"
#include "obs/profiler.hh"
#include "router/router.hh"
#include "sim/invariant.hh"
#include "traffic/besteffort_source.hh"
#include "traffic/cbr_source.hh"
#include "traffic/vbr_source.hh"

namespace mmr
{

/** Traffic composition of the offered load. */
struct WorkloadMix
{
    double cbrShare = 1.0; ///< share of load from CBR connections
    double vbrShare = 0.0; ///< share from VBR connections (mean rate)
    double beShare = 0.0;  ///< share from best-effort Poisson traffic
    VbrProfile vbrProfile; ///< template for VBR streams
    int vbrPriorityLevels = 4; ///< user priorities drawn uniformly

    /**
     * §4.3: "The network interface may decide to abort the
     * transmission of that frame.  By doing so, less bandwidth is
     * wasted in the transmission of a frame that will not meet the
     * deadline."  When set, the interface stops injecting the rest of
     * a video frame once its deadline has passed.
     */
    bool abortLateFrames = false;

    double total() const { return cbrShare + vbrShare + beShare; }
};

struct ExperimentConfig
{
    RouterConfig router;
    double offeredLoad = 0.5; ///< fraction of aggregate switch bw
    Cycle warmupCycles = 20000;
    Cycle measureCycles = 100000;
    std::uint64_t seed = 42;
    std::vector<double> rateLadder; ///< empty -> paperRateLadder()
    WorkloadMix mix;

    /**
     * §5 methodology: "run until steady state was reached".  When
     * set, the warm-up length is determined by a steady-state
     * detector on windowed mean delay instead of warmupCycles, capped
     * at maxWarmupCycles.
     */
    bool autoWarmup = false;
    Cycle warmupWindow = 2000;   ///< detector window (cycles)
    Cycle maxWarmupCycles = 200000;

    /** Observability outputs (tracing, sampling, profiling); the
     * default is fully off and costs nothing. */
    ObsConfig obs;

    /**
     * Per-class switch-delay budgets in flit cycles (0 = no deadline
     * accounting for that class).  A measured flit whose delay
     * exceeds its class budget counts as a QoS violation (§4.3's
     * deadline argument made measurable).
     */
    Cycle cbrDelayBudget = 0;
    Cycle vbrDelayBudget = 0;

    /** Deliberately trip an invariant at this cycle (0 = never).
     * Exercises the flight recorder's crash dump end to end; used by
     * the CI observability-smoke job, never by real experiments. */
    Cycle forcePanicAt = 0;

    /** Fatal on a value no experiment can run: an offered load outside
     * [0,1], an empty mix or a router configuration that
     * RouterConfig::validate() rejects.  The experiment's constructor
     * and the sweep runner (before any point runs) both call it. */
    void validate() const;
};

/** Per-service-class aggregate results. */
struct ClassResult
{
    StreamStat delayCycles;
    StreamStat jitterCycles;
    std::uint64_t flits = 0;

    /** Frame-deadline accounting (VBR only, §4.3): a flit misses when
     * it leaves the switch after its frame's slot has ended. */
    std::uint64_t deadlineMisses = 0;
    std::uint64_t deadlineTotal = 0;

    /** QoS budget accounting (ExperimentConfig::*DelayBudget). */
    QosCounters qos;

    /** Full switch-delay distribution + its percentile digest. */
    LatencyHistogram delayHist;
    LatencySummary latency;

    double
    deadlineMissRate() const
    {
        return deadlineTotal
                   ? static_cast<double>(deadlineMisses) /
                         static_cast<double>(deadlineTotal)
                   : 0.0;
    }
};

/**
 * One connection's measured service: what a bench groups connections
 * by (class, admitted rate, VBR priority) and what it folds per group
 * (delay, jitter, frame deadlines).
 */
struct ConnectionResult
{
    TrafficClass klass = TrafficClass::CBR;
    double rateBps = 0.0; ///< admitted rate (a VBR stream's mean rate)
    int priority = 0;     ///< VBR user priority (0 for other classes)
    StreamStat delay;
    StreamStat jitter;
    std::uint64_t deadlineMisses = 0; ///< VBR frame deadlines (§4.3)
    std::uint64_t deadlineTotal = 0;
};

struct ExperimentResult
{
    double offeredLoad = 0.0;  ///< requested
    double achievedLoad = 0.0; ///< admitted demand / capacity
    unsigned connections = 0;

    double meanDelayCycles = 0.0;
    double meanDelayUs = 0.0;
    double meanJitterCycles = 0.0;
    double p99DelayCycles = 0.0;
    double utilization = 0.0;

    std::uint64_t flitsDelivered = 0;
    std::uint64_t injectionRejects = 0;
    std::uint64_t abortedFlits = 0; ///< dropped by late-frame aborts
    Cycle warmupUsed = 0; ///< actual warm-up (autoWarmup may shorten)

    ClassResult cbr;
    ClassResult vbr;
    ClassResult bestEffort;

    /** One record per connection the recorder saw, in open (=
     * ascending id) order.  The class aggregates' delay, jitter, flit
     * and deadline counts are their fold in this order, so the
     * records stay out of resultDigest. */
    std::vector<ConnectionResult> perConnection;

    /**
     * Stage latency decomposition: where a flit's switch delay went
     * (source queue, VC residency, arbitration, switch traversal;
     * LinkTransit stays empty in single-router mode).  Histograms are
     * carried whole so sweep shards can be merged bit-identically;
     * summaries are the derived percentile digests.
     */
    LatencyHistogram stageHist[kNumLatencyStages];
    LatencySummary stageLatency[kNumLatencyStages];

    double flitCycleNanos = 0.0;

    /** Simulator throughput (wall-clock; excluded from resultDigest —
     * wall time is inherently nondeterministic). */
    SimProfile profile;
};

class SingleRouterExperiment
{
  public:
    explicit SingleRouterExperiment(const ExperimentConfig &cfg);
    ~SingleRouterExperiment();

    SingleRouterExperiment(const SingleRouterExperiment &) = delete;
    SingleRouterExperiment &
    operator=(const SingleRouterExperiment &) = delete;

    /** Build the workload, run warm-up + measurement, and report. */
    ExperimentResult run();

    /** Router access for white-box tests. */
    MmrRouter &router() { return *dut; }

    /** The invariant auditor ticking alongside the router.  Always
     * registered; whether checks execute follows invariant::enabled(). */
    InvariantChecker &invariants() { return auditor; }

  private:
    struct Stream
    {
        ConnId conn;
        TrafficClass klass;
        ChannelRef in; ///< the input VC the connection is bound to
        int priority = 0; ///< VBR user priority
        std::unique_ptr<TrafficSource> source;
        VbrSource *vbr = nullptr; ///< non-owning view for deadlines
        std::uint32_t seq = 0;
    };

    void buildWorkload();
    /** Open one stream of @p klass (CBR, VBR or best effort) between
     * a random port pair with room for @p rate_bps (a VBR stream's
     * mean rate) and start its source; false when no pair of a few
     * tries admits it. */
    bool addStream(TrafficClass klass, double rate_bps);
    void injectArrivals(Cycle now);
    void pollStream(std::size_t idx, Cycle now);
    /** Inject, step @p kernel one cycle, then account the router's
     * departures of that cycle (steady-state window, VBR deadlines). */
    void step(Kernel &kernel);

    ExperimentConfig cfg;
    MetricsRecorder recorder;
    std::unique_ptr<MmrRouter> dut;
    InvariantChecker auditor;
    Rng rng;

    std::vector<Stream> streams;

    /**
     * Injection skip-ahead: a timing wheel of per-cycle buckets.
     * Sources guarantee polls before their due cycle are
     * side-effect-free no-ops (see TrafficSource::nextDueCycle), so
     * only due streams are polled each cycle; buckets are drained in
     * cycle order and sorted by stream index first, so the poll — and
     * therefore shared-RNG draw — order of the naive
     * poll-everyone-every-cycle loop is reproduced bit-exactly.
     * Insertion is O(1) (vs. two O(log n) heap sifts per poll); due
     * cycles beyond the wheel horizon wait in a small overflow heap
     * and spill into the wheel as it turns.
     */
    static constexpr std::size_t kWheelSize = 1024; ///< power of two
    std::vector<std::vector<std::uint32_t>> dueWheel;
    std::vector<std::pair<Cycle, std::uint32_t>> farDue; ///< min-heap
    Cycle lastDrained = 0;
    bool dueWheelInit = false;

    void scheduleStream(std::size_t idx, Cycle due, Cycle origin);
    void drainBucket(Cycle c, Cycle now);

    std::vector<double> inputDemand;  ///< admitted bits/s per input
    std::vector<double> outputDemand; ///< admitted bits/s per output
    std::unordered_map<ConnId, std::pair<std::uint64_t, std::uint64_t>>
        deadlineByConn;
    std::uint64_t abortedFlitCount = 0;
    /** Windowed delay accumulation for the steady-state detector. */
    double windowDelaySum = 0.0;
    std::uint64_t windowDelayCount = 0;
    double admittedBps = 0.0;
    bool built = false;
};

/** Convenience wrapper: configure, run, return the result. */
ExperimentResult runSingleRouter(const ExperimentConfig &cfg);

/**
 * Order-sensitive digest of every statistic in an ExperimentResult
 * (FNV-1a over the raw field bytes).  Two same-seed runs must produce
 * bit-identical digests — the determinism audit that catches
 * unordered-container iteration order or uninitialized-memory bugs
 * before any parallelism work relies on it.
 */
std::uint64_t resultDigest(const ExperimentResult &r);

} // namespace mmr

#endif // MMR_HARNESS_SINGLE_ROUTER_HH
