/**
 * @file
 * Timed PCS connection establishment (§3.4, §3.5).
 *
 * ProbeSetupManager drives every PathSearch (epb.hh), in two modes.
 * establish() runs one search to completion in zero simulated time,
 * for static streams opened up front and the host interfaces'
 * synchronous re-establishment.  The timed protocol is the
 * *distributed* one the paper describes: a routing probe travels hop
 * by hop, one search step per hop latency, reserving link bandwidth
 * and an output virtual channel at every router it passes and
 * backtracking (and releasing) at dead ends; once the destination
 * accepts, an acknowledgment returns along the reverse channel
 * mappings before the source may transmit.  Probes, backtracking
 * probes and acknowledgments are short control messages handled
 * during switch reconfiguration cycles (§3.4), so each hop costs a
 * small fixed number of flit cycles rather than a full scheduling
 * round trip.  The timed mode adds only that timing, message loss,
 * the ack walk and the source timer; both modes read one
 * per-destination distance cache, which follows the topology's link
 * epoch, and neither steps onto a link the topology reports down.
 *
 * Because resources are reserved and released *as the probe moves*,
 * concurrent setups contend realistically: two probes racing for the
 * last virtual channel of a link interleave in simulated time and
 * exactly one wins.
 */

#ifndef MMR_NETWORK_PROBE_PROTOCOL_HH
#define MMR_NETWORK_PROBE_PROTOCOL_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "network/epb.hh"
#include "network/topology.hh"

namespace mmr
{

/** Lifecycle of one timed setup attempt. */
enum class SetupState
{
    Probing,     ///< probe searching forward / backtracking
    Returning,   ///< path found; ack travelling back to the source
    Established, ///< ack arrived; data may flow
    Refused      ///< probe backtracked out of the source node
};

/**
 * A PCS connection's address in the Network's connection pool
 * (Network::Handle): its slot and the slot's epoch when the
 * connection was installed.  The epoch is bumped only when the slot
 * is freed, so a handle names its connection until the teardown
 * completes and then stays stale, even after the slot is reused.  A
 * default-constructed handle names no slot.
 */
struct ConnHandle
{
    std::uint32_t slot = ~std::uint32_t{0};
    std::uint32_t epoch = 0;
};

/**
 * The one record of a timed setup, from begin() until its outcome is
 * taken: the probe's search (request, hops reserved so far or the
 * final path, step counts), the protocol's timing, and the connection
 * the owner installed for it.
 */
struct TimedSetup : PathSearch
{
    SetupState state = SetupState::Probing;
    Cycle startedAt = 0;
    Cycle finishedAt = 0; ///< valid once Established/Refused
    /** Refused because the source's setup timer expired (the probe or
     * its ack was lost, or establishment simply took too long), not
     * because the search was exhausted. */
    bool timedOut = false;
    /** The connection the owner installed: its label (kInvalidConn if
     * none) and its handle, both recorded at the install. */
    ConnId conn = kInvalidConn;
    ConnHandle handle;
};

/**
 * Drives every path search.  The owner (Network) calls establish()
 * for a zero-time setup, and step() once per flit cycle for the
 * timed probes; on a timed completion the manager invokes the
 * owner's callback so it can install the segments (Established) and
 * record the connection on the setup.  A finished setup keeps its
 * slot until its outcome is taken with take().
 */
class ProbeSetupManager
{
  public:
    using RouterAccess = std::function<MmrRouter &(NodeId)>;
    /** Invoked exactly once per timed setup when it leaves the
     * in-flight set (state Established or Refused).  An Established
     * setup still holds its hops: the owner installs them and sets
     * TimedSetup::conn and handle, or releases them with
     * releaseAll(). */
    using CompletionFn = std::function<void(TimedSetup &)>;
    /** Fault-injection filter: return true to lose the setup's next
     * protocol message (probe, backtrack or ack hop) on the wire. */
    using MessageLoss = std::function<bool(const TimedSetup &)>;

    ProbeSetupManager(const Topology &topo, RouterAccess router_at,
                      CompletionFn on_complete, std::uint64_t seed);

    /** Searches hold the address of the manager's fabric. */
    ProbeSetupManager(const ProbeSetupManager &) = delete;
    ProbeSetupManager &operator=(const ProbeSetupManager &) = delete;

    /** Flit cycles per probe, backtrack or ack hop (§3.4: a control
     * message is handled in a switch reconfiguration cycle): the
     * timed protocol's hop latency and the zero-time estimate. */
    static constexpr Cycle kHopCycles = 2;

    /**
     * Zero-time setup: run @p search for @p req to completion, its
     * link order drawn from @p rng.  True when the path is reserved
     * (search.hops, ending at the destination NI); false when it was
     * refused, with every reservation released.  No simulated time
     * passes, no message is lost and no in-flight probe sees it.
     */
    bool establish(const SetupRequest &req, SetupPolicy policy, Rng &rng,
                   PathSearch &search);

    /**
     * Source-side setup timer (§3.4 pushes such decisions to the
     * interfaces): a setup not Established within @p cycles of its
     * begin() is refused with timedOut set and every hop reservation
     * released.  This is the recovery path for lost probes/acks —
     * without it a dropped message would strand its reservations
     * forever.  0 disables the timer (only safe with no message loss).
     */
    void setSetupTimeout(Cycle cycles) { timeoutCycles = cycles; }
    Cycle setupTimeout() const { return timeoutCycles; }

    /** Optional fault-injection hook losing protocol messages. */
    void setMessageLoss(MessageLoss fn) { messageLoss = std::move(fn); }

    /** Probe/backtrack/ack messages lost by the fault hook. */
    std::uint64_t messagesLost() const { return statMessagesLost; }

    /** Setups refused by the source timer expiring. */
    std::uint64_t setupTimeouts() const { return statTimeouts; }

    /**
     * Add the bandwidth every in-flight probe holds to flat
     * per-(node, output) tables in one pass over the probes: node n's
     * row is [port_offset[n], port_offset[n + 1]), and a hop at
     * (n, out) adds to entry port_offset[n] + out.  Lets the
     * admission-ledger audits account for reservations that are not
     * yet installed segments.
     */
    void accountReservations(const std::vector<std::size_t> &port_offset,
                             std::vector<unsigned> &alloc,
                             std::vector<unsigned> &peak) const;

    /**
     * Changes whenever any in-flight probe's hop list changes: begin,
     * hop reserve, backtrack or release, timeout, and completion.  A
     * table filled by accountReservations() is current while this
     * stamp is unchanged.
     */
    std::uint64_t reservationStamp() const { return holdStamp; }

    /** The @p i-th in-flight setup in service order (i < inFlight()). */
    const TimedSetup &
    inFlightAt(std::size_t i) const
    {
        return slots[order[i]].setup;
    }

    /**
     * Launch a probe.  Returns its token: slot index << 32 | the
     * slot's epoch, which take() bumps before it frees the slot, so a
     * taken token stays dead after a later setup reuses the slot.
     */
    std::uint64_t begin(const SetupRequest &req, SetupPolicy policy,
                        Cycle now);

    /** Advance every in-flight probe that is due at @p now. */
    MMR_HOT_PATH void step(Cycle now);

    std::size_t inFlight() const { return order.size(); }

    /** Take the finished setup @p token names: free its slot and
     * return the setup, readable until the next begin().  Null while
     * the probe is in flight and once its outcome was taken. */
    const TimedSetup *take(std::uint64_t token);

    /** Finished setups whose outcome nobody has taken yet. */
    std::size_t
    untakenOutcomes() const
    {
        return slots.size() - freeSlots.size() - order.size();
    }

    /**
     * Pre-seed the probe slot pool for @p n setups in flight or
     * waiting for their outcome to be taken: slots are minted (their
     * searches sized for the topology) and pushed onto the free list,
     * so a steady churn of setups allocates nothing.  Nothing
     * observable reads a slot index, so behavior is unchanged; only
     * the heap traffic moves from steady state to construction time.
     */
    void reservePools(std::size_t n);

  private:
    /**
     * Probe state, pooled: a slot holds its setup from begin() until
     * take(), which returns the slot (and every container's capacity)
     * to the free list, so a steady churn of setups allocates nothing
     * once the pool and its slots have reached their high-water marks.
     */
    struct Probe
    {
        TimedSetup setup;
        /** Token epoch (see begin()): bumped at take, never reset. */
        std::uint32_t epoch = 0;
        /** Finished, and its outcome not taken yet. */
        bool finished = false;
        Cycle nextAction = 0;
        /** Source-timer expiry (0 = no timer). */
        Cycle deadline = 0;
        /** The next protocol message was lost; the probe is inert
         * until the source timer reclaims it. */
        bool lost = false;
        /** Ack position while Returning (index into hops). */
        std::size_t ackIndex = 0;
    };

    /** Start @p search for @p req at its source, steering by the
     * cached distances to req.dst. */
    void launch(PathSearch &search, const SetupRequest &req,
                SetupPolicy policy);

    /** Hop distances to @p dst over the surviving links, refilled in
     * place on the first call after the topology's link epoch moved.
     * A probe copies them at begin() and keeps that snapshot. */
    const std::vector<unsigned> &distancesTo(NodeId dst);

    /** One protocol action for one probe; returns true when the probe
     * is finished and must be removed. */
    bool advanceProbe(Probe &p, Cycle now);

    /** Release every reserved hop and complete as Refused/timedOut. */
    void timeoutProbe(Probe &p, Cycle now);

    const Topology &topo;
    SearchFabric fabric;
    CompletionFn onComplete;
    MessageLoss messageLoss; ///< empty = lossless control channel
    Rng rng;
    Cycle timeoutCycles = 0;
    std::uint64_t statMessagesLost = 0;
    std::uint64_t statTimeouts = 0;
    std::uint64_t holdStamp = 0; ///< see reservationStamp()

    /** Probe slot pool: order holds the indices of in-flight slots
     * in launch order (the protocol's service order), freeSlots the
     * slots take() returned; the rest hold finished setups.
     * Completing a probe erases its order entry — a cheap u32 memmove
     * instead of shifting whole Probe objects. */
    std::vector<Probe> slots;
    std::vector<std::uint32_t> freeSlots;
    std::vector<std::uint32_t> order;

    /** Per-destination distance tables, each stamped with the link
     * epoch it was filled at (0 = never), and their BFS queue. */
    std::vector<std::vector<unsigned>> distCache;
    std::vector<std::uint64_t> distCacheEpoch;
    std::vector<NodeId> bfsQueue;
};

} // namespace mmr

#endif // MMR_NETWORK_PROBE_PROTOCOL_HH
