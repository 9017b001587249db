/**
 * @file
 * Delay/jitter measurement exactly as defined in §5:
 *
 *  - delay: difference between the cycle a flit is ready to be
 *    transmitted through the switch and the cycle it actually leaves
 *    the switch;
 *  - jitter: the difference in the delays of successive flits on a
 *    connection (recorded as |d_i - d_{i-1}| in flit cycles).
 *
 * Recorders gate on a warm-up boundary so statistics cover only the
 * steady-state window (§5 gathers ~100,000 cycles after steady state).
 */

#ifndef MMR_METRICS_RECORDER_HH
#define MMR_METRICS_RECORDER_HH

#include <vector>

#include "base/flat_map.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "obs/histogram.hh"
#include "traffic/rates.hh"

namespace mmr
{

/** Per-connection delay and jitter accumulators. */
class ConnectionRecorder
{
  public:
    /**
     * Record one flit leaving the switch.
     * @param delay_cycles switch delay of the flit in flit cycles
     * @param measured false during warm-up: updates the jitter
     *                 reference but not the statistics
     */
    void record(double delay_cycles, bool measured);

    const StreamStat &delay() const { return delayStat; }
    const StreamStat &jitter() const { return jitterStat; }
    std::uint64_t flitCount() const { return flits; }

  private:
    StreamStat delayStat;
    StreamStat jitterStat;
    double lastDelay = 0.0;
    bool haveLast = false;
    std::uint64_t flits = 0;
};

/**
 * Per-class QoS deadline accounting: every measured flit of a class
 * with a configured delay budget is checked against it, counting
 * violations and the worst excess (§4.3's deadline argument made
 * measurable — the violation *rate* is the figure of merit reported
 * next to the acceptance ratio).
 */
struct QosCounters
{
    Cycle budgetCycles = 0;       ///< 0 = no deadline configured
    std::uint64_t flits = 0;      ///< measured flits checked
    std::uint64_t violations = 0; ///< flits with delay > budget
    Cycle worstExcessCycles = 0;  ///< max(delay - budget) over flits

    double
    violationRate() const
    {
        return flits ? static_cast<double>(violations) /
                           static_cast<double>(flits)
                     : 0.0;
    }
};

/** Whole-experiment aggregation across connections. */
class MetricsRecorder
{
  public:
    /** Start measuring (end of warm-up). */
    void startMeasurement(Cycle now) { measureStart = now; }
    bool measuring(Cycle now) const { return now >= measureStart; }

    /**
     * Record one flit leaving the switch.  @p klass selects the
     * per-class delay histogram and QoS budget; @p stages, when
     * non-null, feeds the per-stage latency decomposition (the
     * router's apply path passes both, legacy callers neither).
     */
    void recordDeparture(ConnId conn, Cycle now, double delay_cycles,
                         TrafficClass klass = TrafficClass::BestEffort,
                         const StageSample *stages = nullptr);

    /** One link hop's wire time (network mode; feeds LinkTransit). */
    void recordLinkTransit(Cycle transit_cycles, Cycle now);

    /** Arm the per-class delay deadline; 0 disables the accounting. */
    void setQosBudget(TrafficClass klass, Cycle budget_cycles);
    const QosCounters &qos(TrafficClass klass) const
    {
        return qosByClass[static_cast<std::size_t>(klass)];
    }

    const LatencyHistogram &stageHistogram(LatencyStage s) const
    {
        return stageHist[static_cast<std::size_t>(s)];
    }

    /** Total switch-delay distribution of one traffic class. */
    const LatencyHistogram &classHistogram(TrafficClass k) const
    {
        return classDelayHist[static_cast<std::size_t>(k)];
    }

    /** One switch output port opportunity: used or idle this cycle. */
    void recordOutputSlot(bool used, Cycle now);

    /**
     * Batch form: @p flits forwarded out of @p ports output-link slots
     * this cycle.  With an N-times-speedup (perfect) switch several
     * flits can share one output slot, so utilization is defined as
     * carried flits over link slots (never exceeds 1: at most one flit
     * enters per input link per cycle).
     */
    void recordOutputSlots(unsigned flits, unsigned ports, Cycle now);

    /** Aggregate mean delay over all measured flits (flit cycles). */
    double meanDelayCycles() const;

    /** Aggregate mean |jitter| over all measured flit pairs (cycles). */
    double meanJitterCycles() const;

    /** Fraction of output-port slots carrying a flit. */
    double switchUtilization() const { return outputSlots.ratio(); }

    std::uint64_t measuredFlits() const;

    /** 99th percentile of measured flit delays (flit cycles). */
    double delayPercentile(double p) const { return delaySketch.percentile(p); }

    const ConnectionRecorder *connection(ConnId conn) const;
    std::vector<ConnId> connections() const;

    /**
     * Retire a finished connection: fold its delay/jitter moments and
     * flit count into the retired aggregates and drop the per-
     * connection entry.  Keeps recorder memory independent of
     * *cumulative* connection count under session churn — only live
     * connections hold a ConnectionRecorder.  Callers must release in
     * a deterministic order (the churn engine reaps coordinator-
     * serial), since StreamStat::merge is floating point.
     */
    void releaseConnection(ConnId conn);

    /** Connections folded into the retired aggregates so far. */
    std::uint64_t retiredConnections() const { return retiredConns; }

    /** Pre-size the connection table for @p n concurrent
     * connections, so connections up to that count record and
     * release without allocating. */
    void reserve(std::size_t n);

  private:
    ConnectionRecorder &slot(ConnId conn);

    /**
     * The connection table.  Every id a flit carries (a harness's
     * local id, a PCS label, a best-effort flow tag) maps through
     * `index` to its record in `pool`; a released record is reset and
     * its position waits on `freeRecords` for the next new id.  An
     * entry exists once a flit of the connection was recorded.
     */
    FlatMap<ConnId, std::uint32_t> index;
    std::vector<ConnectionRecorder> pool;
    std::vector<std::uint32_t> freeRecords;

    /** Moments of released connections (releaseConnection). */
    StreamStat retiredDelay;
    StreamStat retiredJitter;
    std::uint64_t retiredConns = 0;
    RatioStat outputSlots;
    PercentileSketch delaySketch;
    Cycle measureStart = 0;

    /** Fixed-footprint distribution state (see obs/histogram.hh):
     * always on — recording is a few integer ops per flit. */
    LatencyHistogram stageHist[kNumLatencyStages];
    LatencyHistogram classDelayHist[kNumTrafficClasses];
    QosCounters qosByClass[kNumTrafficClasses];
};

} // namespace mmr

#endif // MMR_METRICS_RECORDER_HH
