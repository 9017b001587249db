/**
 * @file
 * Multi-router MMR network.
 *
 * Wires one MmrRouter per topology node (degree + 1 ports; the extra
 * port attaches the host interface), connects output ports to the
 * neighbors' input ports with a fixed link latency, returns credits
 * upstream when flits drain, and implements the two transmission
 * regimes of §3:
 *
 *  - PCS connections: established by EPB (or the greedy baseline),
 *    installing a segment in every router along the path; stream
 *    flits then follow the direct channel mappings;
 *  - VCT datagrams (best-effort and control packets): routed hop by
 *    hop with the adaptive up*-down* algorithm, reserving a virtual
 *    channel per hop and releasing it when the single-flit packet
 *    moves on (§3.4).
 *
 * Link health lives in the Topology the network owns: failLink() and
 * repairLink() flip it there, and datagram routing, the setup probes,
 * egress and the link-symmetry invariant all read it there.
 */

#ifndef MMR_NETWORK_NETWORK_HH
#define MMR_NETWORK_NETWORK_HH

#include <functional>
#include <memory>
#include <vector>

#include "metrics/recorder.hh"
#include "network/epb.hh"
#include "network/probe_protocol.hh"
#include "network/topology.hh"
#include "network/updown.hh"
#include "router/router.hh"
#include "sim/kernel.hh"

namespace mmr
{

class ShardPool;

/**
 * The label space.  A PCS connection's label (its ConnId) and a
 * datagram's flow tag share one key space: both tag flits and key the
 * end-to-end recorder.  PCS labels count up from kPcsLabelBase in
 * creation order and panic before they reach kBestEffortTagBase; host
 * h tags its best-effort flows from kBestEffortTagBase +
 * h * kBestEffortTagsPerHost and panics once that window is spent.
 */
constexpr ConnId kPcsLabelBase = 0x100000;
constexpr ConnId kBestEffortTagBase = 0x4000000;
constexpr ConnId kBestEffortTagsPerHost = 0x10000;

struct NetworkConfig
{
    /** Per-router template; numPorts is overridden per node. */
    RouterConfig router;
    Cycle linkLatency = 1;       ///< flit cycles per inter-router hop
    /** Flit cycles per probe, backtrack or ack hop: the timed
     * protocol's hop latency and the zero-time setup estimate. */
    Cycle probeHopCycles = 2;
    std::uint64_t seed = 7;

    /**
     * Intra-run parallelism: deal the routers to this many shards
     * (router n to shard n mod shards), each evaluated/advanced on its
     * own worker thread.  A shard deposits the stream flits that land
     * on its routers, and every router callback is deferred through
     * per-shard mailboxes replayed merged by router id, so results are
     * bit-identical at every shard count.  Clamped to [1, node count];
     * one shard runs every router on the calling thread through the
     * same arrival lists and mailboxes.
     */
    unsigned shards = 1;
};

class Network : public Clocked
{
  public:
    Network(Topology topo, NetworkConfig cfg);
    ~Network();

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    unsigned numNodes() const { return topo.numNodes(); }
    /** The router graph and which of its links are up. */
    const Topology &topology() const { return topo; }
    const UpDownRouting &updown() const { return *updownRoutes; }

    /** Effective shard count (config value clamped to the node count). */
    unsigned shards() const { return numShards; }

    /** Shard owning router @p n: n mod shards().  The routers are
     * dealt round-robin, so each stage of a MIN (numbered stage x
     * width + position) is split evenly across the shards. */
    unsigned shardOfNode(NodeId n) const { return n % numShards; }

    /** Host-interface port index of a node's router. */
    PortId niPort(NodeId n) const { return topo.degree(n); }

    MmrRouter &routerAt(NodeId n);

    // ------------------------------------------------------------------
    // Connection-oriented traffic (PCS)
    // ------------------------------------------------------------------
    /** A PCS connection's one handle (see ConnHandle): every call
     * below that names a connection takes it. */
    using Handle = ConnHandle;

    /** Outcome of a zero-time setup, or of a timed one once taken. */
    struct SetupOutcome
    {
        /** The connection's label: its flit tag and recorder key. */
        ConnId id = kInvalidConn;
        Handle handle;
        bool accepted = false;
        unsigned forwardSteps = 0;
        unsigned backtrackSteps = 0;
        unsigned pathLength = 0; ///< routers on the final path
        Cycle setupCycles = 0; ///< probe + ack (zero-time: estimated)
    };

    SetupOutcome openCbr(NodeId src, NodeId dst, double rate_bps,
                         SetupPolicy policy = SetupPolicy::Epb);
    SetupOutcome openVbr(NodeId src, NodeId dst, double mean_bps,
                         double peak_bps, int priority,
                         SetupPolicy policy = SetupPolicy::Epb);

    // ---- timed (distributed) establishment ---------------------------
    /**
     * Launch a probe at cycle @p now; the connection (if accepted)
     * becomes injectable once takeTimedResult(token) succeeds.  Unlike
     * openCbr(), setup latency here is *measured*: the probe reserves
     * resources hop by hop in simulated time and contends with other
     * in-flight probes.
     */
    std::uint64_t openCbrTimed(NodeId src, NodeId dst, double rate_bps,
                               Cycle now,
                               SetupPolicy policy = SetupPolicy::Epb);
    std::uint64_t openVbrTimed(NodeId src, NodeId dst, double mean_bps,
                               double peak_bps, int priority, Cycle now,
                               SetupPolicy policy = SetupPolicy::Epb);

    /**
     * Destructive poll: copy the token's outcome into @p out and free
     * the probe slot that held it.  False while the probe is still in
     * flight and after the outcome was taken, so a finished setup
     * holds its slot only until somebody claims its outcome.  The
     * handle is the one recorded when the path was installed: if the
     * connection failed and drained before the take, it is stale.
     */
    bool takeTimedResult(std::uint64_t token, SetupOutcome &out);

    /** Probes still in flight. */
    std::size_t pendingSetups() const { return probeMgr->inFlight(); }

    /**
     * Begin tearing a connection down; the per-router segments are
     * removed once their buffers drain.  False on a stale handle.
     */
    bool closeConnection(Handle h);

    /** True while the handle's connection takes flits: slot not
     * freed, not closing, not failed. */
    bool
    live(Handle h) const
    {
        const PcsConnection *conn = find(h);
        return conn != nullptr && !conn->closing;
    }

    /**
     * Inject a stream flit at the connection's source host, straight
     * into its NI input VC.  False when the handle is not live
     * (nothing is deposited or counted) and on back-pressure (counted
     * in injectRejects()).
     */
    bool inject(Handle h, Flit f, Cycle now);

    /**
     * Renegotiate a CBR connection's bandwidth along its whole path
     * (§4.3 control words); rolls back on any per-hop failure.
     */
    bool renegotiateBandwidth(Handle h, double new_rate_bps);

    /** Change a VBR connection's priority along its path. */
    bool setConnectionPriority(Handle h, int priority);

    /** One router of a connection's path: the node and the input
     * channel its segment is bound to there. */
    struct PathHop
    {
        NodeId node = kInvalidNode;
        ChannelRef in;
    };

    /** The path of a connection, source first (empty on a stale
     * handle). */
    std::vector<PathHop> connectionPath(Handle h) const;

    /** Connections holding a pool slot, closing ones included. */
    std::size_t
    openConnectionCount() const
    {
        return pcsSlots.size() - pcsFreeSlots.size();
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /**
     * Fail the bidirectional link between @p a and @p b in the
     * topology: flits crossing it (buffered, in flight, or future)
     * are lost and counted, connections routed over it are marked
     * failed and torn down as they drain, and datagram routing and
     * setup probes, which read the topology's link state, avoid it
     * from now on.  Returns false when the nodes are not adjacent or
     * the link is already down.
     */
    bool failLink(NodeId a, NodeId b);

    /** Repair a previously failed link; false unless it is down. */
    bool repairLink(NodeId a, NodeId b);

    /** State of a connection as seen by the host interface. */
    enum class ConnState
    {
        Open,   ///< healthy or closing: not failed, slot held
        Failed, ///< lost a link; draining toward removal
        Gone    ///< stale handle: fully removed
    };
    ConnState connectionState(Handle h) const;

    std::uint64_t flitsLostToFailures() const { return statLostFlits; }
    std::uint64_t connectionsFailed() const { return statConnsFailed; }
    std::uint64_t flitsCorrupted() const { return statFlitsCorrupted; }
    std::uint64_t datagramsLost() const { return statDatagramsLost; }

    /**
     * Invoked whenever a link failure marks a connection failed, with
     * (label, src, dst, class) — the subscription point for recovery
     * machinery (fault/recovery.hh) that re-routes affected
     * connections.  Called from inside failLink(), once per failed
     * connection in ascending label order; the hook may open
     * connections.
     */
    using ConnectionFailureFn =
        std::function<void(ConnId, NodeId, NodeId, TrafficClass)>;
    void setConnectionFailureHook(ConnectionFailureFn fn)
    {
        connFailHook = std::move(fn);
    }

    /**
     * Fault-injection filter consulted once per flit entering an
     * inter-router link (never the NI): return true to corrupt the
     * flit on the wire.  The downstream router's CRC check discards
     * corrupted flits on arrival, returning the upstream credit (and,
     * for datagrams, the link VC) so nothing wedges.
     */
    using LinkCorruptFn =
        std::function<bool(NodeId, PortId, const Flit &)>;
    void setLinkCorruptHook(LinkCorruptFn fn)
    {
        corruptHook = std::move(fn);
    }

    /** The timed-setup protocol driver (setup timeout, message-loss
     * fault hooks, probe-held reservation accounting). */
    ProbeSetupManager &probes() { return *probeMgr; }
    const ProbeSetupManager &probes() const { return *probeMgr; }

    /**
     * Register the full invariant battery over this network into
     * @p chk: every router's seven invariants under a "router<N>."
     * prefix — with the admission-ledger audit extended by the
     * bandwidth in-flight setup probes hold — plus the network-level
     * link-state symmetry and PCS segment-consistency checks.  The
     * checker must tick after the network.
     */
    void registerInvariants(InvariantChecker &chk,
                            unsigned sweep_period = 16);

    /**
     * Add the bandwidth in-flight setup probes hold at node @p n to
     * per-output @p alloc / @p peak (sized to the node's port count):
     * row n of a per-(node, output) table that one pass over the
     * probes fills, refilled only when their reservation stamp moves.
     * This is the probe term of every router's admission-ledger audit.
     */
    void addProbeHoldings(NodeId n, std::vector<unsigned> &alloc,
                          std::vector<unsigned> &peak);

    // ------------------------------------------------------------------
    // Datagram traffic (VCT)
    // ------------------------------------------------------------------

    /**
     * Send a single-flit best-effort or control packet.  @p flow tags
     * the packet for end-to-end statistics and names each hop's
     * segment; it must not be kInvalidConn.
     */
    void sendDatagram(NodeId src, NodeId dst, TrafficClass klass,
                      ConnId flow, Cycle now, std::uint32_t seq = 0);

    // ------------------------------------------------------------------
    // Clocked
    // ------------------------------------------------------------------
    MMR_HOT_PATH void evaluate(Cycle now) override;
    MMR_HOT_PATH void advance(Cycle now) override;

    /**
     * Pre-seed every setup-path pool for @p n concurrent sessions:
     * the PCS connection slots (with hop capacity), the probe slot
     * pool and the recorder's overflow table (a router's segments
     * need no pool: they live in its VCs).  The minted PCS slots are
     * stacked under the free ones, so pops hand out what lazy growth
     * would, whether or not connections are open; no result reads a
     * slot index anyway, so results are bit-identical — only the
     * allocations move from steady state to this call.  A workload
     * with a known session ceiling (the churn engine) calls this up
     * front; without it the pools still work, growing amortized
     * instead.
     */
    void reserveSessions(std::size_t n);

    // ------------------------------------------------------------------
    // Measurement
    // ------------------------------------------------------------------
    /** End-to-end recorder (delay = deliver - create, in cycles). */
    MetricsRecorder &endToEnd() { return e2e; }

    std::uint64_t flitsDelivered() const { return statDelivered; }
    std::uint64_t datagramsSent() const { return statDatagramsSent; }
    std::uint64_t datagramsDelivered() const { return statDatagramsDone; }
    std::uint64_t datagramDrops() const { return statDatagramDrops; }
    std::uint64_t pendingDatagrams() const
    {
        return pendingArrivals.size();
    }
    std::uint64_t injectRejects() const { return statInjectRejects; }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /**
     * Register network-level statistics plus every router's stats
     * (prefixed "router<N>.") into @p reg.  Per-router detail defaults
     * to aggregate counters to keep the column count manageable on
     * large topologies.
     */
    void registerStats(
        StatsRegistry &reg,
        MmrRouter::StatsDetail detail = MmrRouter::StatsDetail::Aggregate);

  private:
    /**
     * One PCS connection, pool-slotted: teardown returns the slot
     * (with its hops capacity) to a free list, so the setup/teardown
     * cycle stops allocating once the pool has grown to the peak
     * concurrent-connection count.
     */
    struct PcsConnection
    {
        ConnId id = kInvalidConn; ///< label (flit tag, recorder key)
        NodeId src = 0;
        NodeId dst = 0;
        TrafficClass klass = TrafficClass::CBR;
        VcId srcVc = kInvalidVc; ///< input VC on the source NI port
        std::vector<ReservedHop> hops;
        /** Handle epoch: bumped when the slot is freed, never reset. */
        std::uint32_t epoch = 0;
        bool closing = false; ///< teardown asked for (close or failure)
        bool failed = false;
        bool inUse = false; ///< slot occupancy (pool bookkeeping)
    };

    /** The connection @p h names; nullptr once its slot was freed. */
    const PcsConnection *
    find(Handle h) const
    {
        if (h.slot >= pcsSlots.size())
            return nullptr;
        const PcsConnection &conn = pcsSlots[h.slot];
        return conn.inUse && conn.epoch == h.epoch ? &conn : nullptr;
    }

    /** A flit in flight on an inter-router link. */
    struct LinkFlit
    {
        NodeId toNode;
        PortId toPort;
        VcId vc;
        Flit flit;
        Cycle arriveAt;
    };

    /** A datagram that could not claim its next-hop resources yet. */
    struct PendingArrival
    {
        NodeId node;
        PortId inPort; ///< kInvalidPort: inject fresh at the NI
        VcId inVc;     ///< kInvalidVc until allocated (NI side)
        Flit flit;
    };

    void wireRouter(NodeId n);
    void handleEgress(NodeId n, PortId out, VcId out_vc, const Flit &f,
                      Cycle now);
    void handleCreditReturn(NodeId n, PortId in, VcId vc, Cycle now);
    void handleSegmentRemoved(NodeId n, PortId in, VcId in_vc);
    /** A flit lost after leaving @p up through (@p out, @p vc): return
     * its credit and, for a datagram, the link VC it held. */
    void returnLostFlit(NodeId up, PortId out, VcId vc, const Flit &f);
    void deliverToHost(NodeId n, const Flit &f, Cycle now);

    // ------------------------------------------------------------------
    // Shard-parallel evaluation core
    // ------------------------------------------------------------------

    /**
     * One router callback, logged instead of applied inline.  A worker
     * only ever touches its own shard's routers plus its own shard's
     * mailbox; every cross-router side effect — link egress, upstream
     * credit return, upstream VC release on segment removal — becomes
     * one of these records, replayed by the coordinator after the
     * phase barrier merged by router id.  A shard advances its routers
     * in ascending id, so router n's records are the next run of its
     * shard's log: the replay order is ascending router id, emission
     * order within a router, at every shard count, and the results are
     * bit-identical (see DESIGN.md §12 for the full argument).
     */
    struct DeferredEvent
    {
        enum class Kind : std::uint8_t
        {
            Egress,    ///< sink callback: flit leaving a router
            Credit,    ///< credit return toward the upstream router
            SegRemoved ///< datagram segment freed its upstream link VC
        };

        Kind kind;
        NodeId node;
        PortId port; ///< Egress: out port; Credit, SegRemoved: in port
        VcId vc;     ///< Egress: out VC;   Credit, SegRemoved: in VC
        Flit flit;   ///< Egress only
    };

    /** Per-shard traffic with the coordinator, cache-line padded:
     * neighboring shards write theirs concurrently, and without the
     * alignas the vectors' size/capacity words would false-share one
     * line. */
    struct alignas(64) ShardMailbox
    {
        /** Stream flits that landed on this shard's routers this
         * cycle, in link FIFO order: filled by processArrivals(),
         * deposited and cleared by the shard's evaluate phase. */
        std::vector<LinkFlit> arrivals;
        /** Refused deposits, folded into statInjectRejects by the
         * drain. */
        std::uint64_t injectRejects = 0;
        std::vector<DeferredEvent> log;
        std::size_t replayed = 0; ///< drain cursor into log
    };

    /** Evaluate phase of shard @p s: deposit its arrival list, then
     * evaluate its routers in ascending id. */
    MMR_HOT_PATH void evaluateShard(unsigned s);

    /** Advance phase of shard @p s: its routers in ascending id. */
    MMR_HOT_PATH void advanceShard(unsigned s);

    /** Replay every mailbox log merged by router id, fold the refused
     * deposits into injectRejects(), then clear. */
    MMR_HOT_PATH void drainMailboxes(Cycle now);
    void replay(const DeferredEvent &e, Cycle now);

    unsigned numShards = 1;
    std::vector<ShardMailbox> mailboxes;
    std::unique_ptr<ShardPool> pool;

    /** Pre-bound phase callbacks (no per-cycle allocation). */
    std::function<void(unsigned)> evalPhase;
    std::function<void(unsigned)> advPhase;
    Cycle phaseCycle = 0;

    /**
     * Try to give a datagram its next hop at @p node: pick an output
     * by adaptive up*-down* routing (or the NI port when the packet is
     * home), allocate the VC, install a transient segment and deposit
     * the flit.  Returns false when resources are unavailable.
     */
    bool placeDatagram(PendingArrival &p, Cycle now);

    void processArrivals(Cycle now);
    void processPendingCloses();

    /** True while a flit of connection @p id is between routers: on a
     * link, or landed and waiting in a shard's arrival list. */
    bool onWire(ConnId id) const;

    SetupRequest cbrRequest(NodeId src, NodeId dst, double rate_bps) const;
    SetupRequest vbrRequest(NodeId src, NodeId dst, double mean_bps,
                            double peak_bps, int priority) const;

    /** Zero-time setup of @p req: search, then install the path. */
    SetupOutcome openNow(const SetupRequest &req, SetupPolicy policy);

    /**
     * Install the per-router segments of the path @p search reserved,
     * at its request's rate and priority: returns the connection's
     * label and sets @p handle, or returns kInvalidConn with every hop
     * released.
     */
    ConnId installReservedPath(PathSearch &search, Handle &handle);

    /** Install an Established setup's path; record it on the setup. */
    void onTimedSetupComplete(TimedSetup &s);

    Topology topo;
    NetworkConfig cfg;
    Rng rand;
    std::unique_ptr<UpDownRouting> updownRoutes;
    std::vector<std::unique_ptr<MmrRouter>> routers;
    std::unique_ptr<ProbeSetupManager> probeMgr;

    /** Probe-held bandwidth per (node, output): node n's row is
     * [portOffset[n], portOffset[n + 1]).  Current while
     * probeTableStamp equals the manager's reservationStamp(). */
    std::vector<std::size_t> portOffset;
    std::vector<unsigned> probeAlloc;
    std::vector<unsigned> probePeak;
    std::uint64_t probeTableStamp = ~std::uint64_t{0};

    /**
     * PCS connections: a slot pool that grows to the peak
     * live-connection count and recycles slots afterwards.  Every
     * slot is either in use or on the free list.
     */
    std::vector<PcsConnection> pcsSlots;
    std::vector<std::uint32_t> pcsFreeSlots;

    /** Input channel of hop @p k's segment: the source's NI port and
     * srcVc for hop 0, else the far end of hop k-1's output link and
     * hop k-1's output VC. */
    ChannelRef hopInput(const PcsConnection &conn, std::size_t k) const;

    /** The VC hop @p k's segment is bound to. */
    const VcState &hopVc(const PcsConnection &conn, std::size_t k) const;

    /** Order @p slots by their connections' labels: every walk whose
     * order is observable runs in creation order, not slot order. */
    void sortByLabel(std::vector<std::uint32_t> &slots) const;

    ConnId nextPcsId = kPcsLabelBase; ///< next PCS connection label

    /** In-flight link flits (FIFO by emission; processArrivals keeps
     * not-yet-due flits by compacting into linkQueueNext and
     * swapping, so steady state recycles both buffers). */
    std::vector<LinkFlit> linkQueue;
    std::vector<LinkFlit> linkQueueNext;
    std::vector<PendingArrival> pendingArrivals;

    /**
     * Slots of connections with closing set, maintained incrementally
     * by closeConnection()/failLink() and drained (sorted, so the
     * teardown walk is in ascending label order) by
     * processPendingCloses().  Replaces a full scan of the
     * connection table every cycle.
     */
    std::vector<std::uint32_t> closingSlots;

    /** Legal next hops of the datagram being placed (see
     * UpDownRouting::nextHops), sized to the largest degree. */
    std::vector<PortId> hopPorts;

    /** Reused search of the zero-time setup path, so openCbr/openVbr
     * allocate nothing once warmed. */
    PathSearch setupSearch;

    ConnectionFailureFn connFailHook;
    LinkCorruptFn corruptHook;

    MetricsRecorder e2e;
    std::uint64_t statLostFlits = 0;
    std::uint64_t statConnsFailed = 0;
    std::uint64_t statFlitsCorrupted = 0;
    std::uint64_t statDatagramsLost = 0;
    std::uint64_t statDelivered = 0;
    std::uint64_t statDatagramsSent = 0;
    std::uint64_t statDatagramsDone = 0;
    std::uint64_t statDatagramDrops = 0;
    std::uint64_t statInjectRejects = 0;
};

} // namespace mmr

#endif // MMR_NETWORK_NETWORK_HH
