/**
 * @file
 * The MultiMedia Router (Figure 1).
 *
 * An NxN single-chip router with, per physical input link, a virtual
 * channel memory (interleaved RAM banks holding V virtual channels)
 * and a link scheduler; plus a multiplexed crossbar with a central
 * switch scheduler, a routing and arbitration unit holding the VC
 * pools, per-output-link admission registers and credit-based flow
 * control.  Each connection's segment lives in the state of the input
 * VC it is bound to (§3.2), which also holds its channel mapping
 * (§3.5); the router addresses a segment by that input channel.
 *
 * Time advances in flit cycles.  During cycle t the switch transmits
 * the flits of the matching computed in cycle t-1 while the schedulers
 * concurrently compute the matching for t+1 (§3.4).  The link phit
 * buffers and the asynchronous control cut-through of §3.2/§3.4 are
 * not modelled here: probes travel as timed messages in
 * network/probe_protocol and datagrams as transient VCT segments.
 */

#ifndef MMR_ROUTER_ROUTER_HH
#define MMR_ROUTER_ROUTER_HH

#include <functional>
#include <memory>
#include <vector>

#include "base/rng.hh"
#include "base/stats.hh"
#include "metrics/recorder.hh"
#include "obs/stats_registry.hh"
#include "router/admission.hh"
#include "router/config.hh"
#include "router/crossbar.hh"
#include "router/flow_control.hh"
#include "router/link_sched.hh"
#include "router/routing_unit.hh"
#include "router/switch_sched.hh"
#include "router/vc_memory.hh"
#include "sim/invariant.hh"
#include "sim/kernel.hh"

namespace mmr
{

/**
 * One router's share of a connection: what installSegment binds into
 * the input VC (in, inVc), and what segment() reads back from it.
 */
struct SegmentParams
{
    ConnId id = kInvalidConn;
    TrafficClass klass = TrafficClass::CBR;
    PortId in = kInvalidPort;
    VcId inVc = kInvalidVc;
    PortId out = kInvalidPort;
    VcId outVc = kInvalidVc;
    unsigned allocCycles = 0; ///< CBR reservation (cycles/round)
    unsigned permCycles = 0;  ///< VBR permanent (cycles/round)
    unsigned peakCycles = 0;  ///< VBR peak (cycles/round)
    double interArrival = 0.0;
    int priority = 0; ///< VBR user priority
    bool releaseWhenEmpty = false; ///< VCT packets free their VC
    bool ownsInputVc = true;  ///< input VC came from this router's pool
    bool ownsOutputVc = true; ///< output VC came from this router's pool
};

class MmrRouter : public Clocked
{
  public:
    /** Delivery callback for flits leaving an output port. */
    using SinkFn =
        std::function<void(PortId out, VcId out_vc, const Flit &, Cycle)>;

    /** Credit-return callback: a flit left input VC (in, vc). */
    using CreditFn = std::function<void(PortId in, VcId vc, Cycle)>;

    /** Invoked after a segment is removed (its params by value). */
    using SegmentFn = std::function<void(const SegmentParams &)>;

    explicit MmrRouter(const RouterConfig &cfg,
                       MetricsRecorder *metrics = nullptr);

    // ------------------------------------------------------------------
    // Connection management (§4.2).  A segment is addressed by its
    // input channel: the VC it is bound into is its only record.  The
    // open calls are a local convenience API; the network layer
    // performs admission and VC allocation hop by hop (EPB) and calls
    // installSegment directly.
    // ------------------------------------------------------------------

    /** Open a CBR connection through this router: the input channel it
     * bound, or an invalid ChannelRef on admission or VC exhaustion
     * failure. */
    ChannelRef openCbr(PortId in, PortId out, double rate_bps);

    /** Open a VBR connection (permanent + peak rates, §4.2). */
    ChannelRef openVbr(PortId in, PortId out, double mean_bps,
                       double peak_bps, int priority);

    /** Open an unreserved best-effort channel between two ports. */
    ChannelRef openBestEffort(PortId in, PortId out);

    /** Install a pre-reserved segment (admission already charged);
     * false when a port or VC is out of range, the id is kInvalidConn
     * or the input VC is already bound. */
    bool installSegment(const SegmentParams &p);

    /** Remove the segment bound to input channel @p in, releasing the
     * VCs it owns and its admission charge; false when none is. */
    bool removeSegment(ChannelRef in);

    /** The segment bound to input channel @p in, read back from its
     * VC; id is kInvalidConn when the VC is free. */
    SegmentParams segment(ChannelRef in) const;

    /** Number of installed segments. */
    std::size_t connectionCount() const { return liveCount; }

    // ------------------------------------------------------------------
    // Dynamic bandwidth management (§4.3 control words)
    // ------------------------------------------------------------------

    /** Renegotiate a CBR segment's bandwidth; false if infeasible. */
    bool renegotiateBandwidth(ChannelRef in, double new_rate_bps);

    /** Set a CBR segment's reservation to exactly @p alloc_cycles
     * per round and its inter-arrival time to @p inter_arrival (a
     * rollback restores what the VC held); false if infeasible. */
    bool renegotiateCycles(ChannelRef in, unsigned alloc_cycles,
                           double inter_arrival);

    /** Change a VBR segment's user priority. */
    bool setConnectionPriority(ChannelRef in, int priority);

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    /** Deposit a flit into the segment bound to @p in, stamped with
     * the segment's id and class (readyTime must be set by the
     * caller): a host injection or a link arrival.  False when the VC
     * buffer is full; panics when no segment is bound there. */
    bool inject(ChannelRef in, Flit f);

    void setSink(SinkFn fn) { sink = std::move(fn); }
    void setCreditReturn(CreditFn fn) { creditReturn = std::move(fn); }
    void setSegmentRemoved(SegmentFn fn)
    {
        segmentRemoved = std::move(fn);
    }

    // ------------------------------------------------------------------
    // Clocked interface
    // ------------------------------------------------------------------
    /**
     * Compute the next cycle's matching.  A router that buffers no
     * flit skips scheduling, and a busy one skips the input ports
     * that buffer none; every pass is still counted (matchingSize(),
     * the sched.matching_size trace counter).
     */
    MMR_HOT_PATH void evaluate(Cycle now) override;
    MMR_HOT_PATH void advance(Cycle now) override;

    // ------------------------------------------------------------------
    // Invariant auditing
    // ------------------------------------------------------------------

    /**
     * Register this router's conservation-law invariants with an
     * auditor (§3.1 credits, §4.2 admission): flit-conservation,
     * vc-occupancy, vc-legality, admission-ledger, matching-validity
     * and credit-ledger.  The checker must tick after the router so it
     * audits committed state.
     *
     * @param sweep_period stride for the sweeps over all P x V virtual
     *        channels; cheap per-cycle checks always run every cycle
     * @param prefix namespaces the invariant names ("router3.flit-
     *        conservation") so many routers can share one checker
     * @param extra_demand optional hook adding per-output bandwidth
     *        held outside installed segments (in-flight setup probes)
     *        to the admission-ledger audit; the vectors arrive sized
     *        numPorts and zeroed
     */
    using ExtraDemandFn =
        std::function<void(std::vector<unsigned> &alloc,
                           std::vector<unsigned> &peak)>;
    void registerInvariants(InvariantChecker &chk,
                            unsigned sweep_period = 16,
                            const std::string &prefix = {},
                            ExtraDemandFn extra_demand = nullptr);

    // ------------------------------------------------------------------
    // Observability (obs/ layer)
    // ------------------------------------------------------------------

    /** Granularity of registerStats: aggregate counters only, plus
     * per-port gauges, plus per-VC occupancy gauges. */
    enum class StatsDetail
    {
        Aggregate,
        PerPort,
        PerVc
    };

    /**
     * Register this router's statistics into @p reg under @p prefix
     * ("router0." -> "router0.flits.forwarded",
     * "router0.in2.occupancy", "router0.admission.out1.allocated_cycles",
     * "router0.in2.vc5.occupancy" at PerVc detail).  Probes read live
     * state on demand; registration itself adds no per-cycle cost.
     * The registry must not outlive the router.
     */
    void registerStats(StatsRegistry &reg, const std::string &prefix,
                       StatsDetail detail = StatsDetail::PerPort);

    // ------------------------------------------------------------------
    // Component access (tests, network layer, benches)
    // ------------------------------------------------------------------
    const RouterConfig &config() const { return cfg; }
    AdmissionController &admission() { return admit; }
    const AdmissionController &admission() const { return admit; }
    RoutingUnit &routing() { return routes; }
    VcMemory &inputMemory(PortId p);
    LinkScheduler &linkScheduler(PortId p);
    CreditManager &credits() { return creditMgr; }

    // Statistics
    std::uint64_t flitsInjected() const { return statInjected; }
    std::uint64_t flitsForwarded() const { return statForwarded; }
    std::uint64_t forwardedByClass(TrafficClass c) const;
    /** Control cut-throughs are not modelled, so these three read 0;
     * they stay only because benchmark/mmr_bench.cc still reports
     * them. */
    std::uint64_t bypassHits() const { return 0; }
    std::uint64_t bypassMisses() const { return 0; }
    std::uint64_t controlDrops() const { return 0; }
    std::uint64_t injectionRejects() const { return statInjectReject; }
    const StreamStat &matchingSize() const { return statMatchSize; }
    const ReconfigCounter &reconfigs() const { return reconfig; }

  private:
    /**
     * The shared tail of openCbr/openVbr/openBestEffort: draw the next
     * local id into @p p (class, ports and rates already set), allocate
     * its input and output VCs and install it.  On failure the VCs are
     * freed again and an invalid channel returned; releasing the
     * admission charge is the caller's.
     */
    ChannelRef openLocal(SegmentParams &p);
    /** Link + switch scheduling of the buffered flits: the matching
     * for the next cycle, skipping input ports that hold no flit. */
    void scheduleBuffered(Cycle now);
    bool creditAvailable(const VcState &vc) const;
    void applyMatching(Cycle now);
    void deliver(const Candidate &grant, Flit &&flit, Cycle now,
                 const StageSample &stages);
    /** Remove a VCT segment whose input VC just drained. */
    void maybeAutoRelease(PortId in, VcId in_vc);

    RouterConfig cfg;
    MetricsRecorder *metrics;
    Rng rand;

    std::vector<VcMemory> inputMems;       ///< one per input port
    std::vector<LinkScheduler> linkScheds; ///< one per input port
    std::unique_ptr<SwitchScheduler> sched;
    AdmissionController admit;
    RoutingUnit routes;
    CreditManager creditMgr;

    /** The installed segments' input channels: the first liveCount
     * entries, in no particular order (a remove moves the last one
     * into the freed entry), so the admission-ledger audit reads only
     * live VCs.  Sized P x V at construction, one entry per input VC,
     * so an install never grows it. */
    std::vector<ChannelRef> liveSegs;
    std::size_t liveCount = 0;
    /** Creation-ordered labels of the locally opened connections. */
    ConnId localConnSeq = 0;

    Matching currentMatching; ///< applied during this cycle
    Matching nextMatching;    ///< computed this cycle, applied next
    /** Stage-latency stamps parallel to the matchings (same index =
     * same grant): issue order equals apply order, so the per-grant
     * decomposition never has to live inside the scanned VC state. */
    std::vector<VcState::GrantStamp> currentStamps;
    std::vector<VcState::GrantStamp> nextStamps;

    SinkFn sink;
    CreditFn creditReturn;
    SegmentFn segmentRemoved;

    // Per-cycle scratch, reused so steady state allocates nothing.
    std::vector<std::vector<Candidate>> candScratch;
    std::vector<std::pair<PortId, PortId>> configScratch;
    std::vector<std::pair<PortId, PortId>> lastConfig; ///< reconfig cmp

    /** admission-ledger scratch: per-output sums over the bound
     * segments plus the extra demand, refilled by every audit. */
    std::vector<unsigned> ledgerAlloc;
    std::vector<unsigned> ledgerPeak;

    // Hot statistic counters (the values StatsRegistry probes bind
    // to), bumped every cycle by whichever shard worker owns this
    // router.  Cache-line aligned so the block never shares a line
    // with memory another shard's thread writes — with one router per
    // heap allocation the only cross-thread neighbors are allocator-
    // adjacent objects, and the alignment severs exactly that.
    alignas(64) std::uint64_t statInjected = 0;
    std::uint64_t statForwarded = 0;
    std::uint64_t statByClass[4] = {0, 0, 0, 0};
    std::uint64_t statInjectReject = 0;
    StreamStat statMatchSize;
    ReconfigCounter reconfig;
};

} // namespace mmr

#endif // MMR_ROUTER_ROUTER_HH
