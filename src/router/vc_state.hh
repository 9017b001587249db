/**
 * @file
 * Per-virtual-channel state (§3.2, §4.3).
 *
 * "There is also some state information stored with each virtual
 * channel that is used for scheduling": the connection it belongs to,
 * its service class, the bandwidth allocated in flit cycles per round
 * (CBR), the permanent and peak bandwidth (VBR), the dynamic user
 * priority, and the per-round serviced counter the link scheduler uses
 * to enforce allocations.  The flit slots themselves live in the
 * VcMemory; this class tracks the logical FIFO over them.
 */

#ifndef MMR_ROUTER_VC_STATE_HH
#define MMR_ROUTER_VC_STATE_HH

#include <cstddef>
#include <cstdint>

#include "base/logging.hh"
#include "base/types.hh"
#include "router/flit.hh"

namespace mmr
{

/**
 * One VC's flit FIFO: a non-owning power-of-two ring over the slots
 * its VcMemory reserved for it.  Slot k lives at base[k * stride], so
 * the VC memory can lay the slots of all its VCs out slot-major.  A
 * FIFO that drains restarts at slot 0: a VC that never holds two
 * flits at once only ever touches its first slot.  It never
 * allocates; a push with no storage or into a full ring panics.
 */
class FlitFifo
{
  public:
    /** No storage: every push panics. */
    FlitFifo() = default;

    /** @p slots must be a power of two. */
    FlitFifo(Flit *base_, std::uint32_t stride_, std::size_t slots)
        : base(base_), stride(stride_),
          mask(static_cast<std::uint32_t>(slots - 1))
    {
    }

    bool empty() const { return used == 0; }
    std::size_t size() const { return used; }

    void
    push_back(const Flit &f)
    {
        if (base == nullptr)
            mmr_panic("push() on a VC with no flit storage (flit seq ",
                      f.seq, ")");
        if (used > mask)
            mmr_panic("push() on a full VC ring of ", mask + 1,
                      " slots (flit seq ", f.seq, ")");
        slot((head + used) & mask) = f;
        ++used;
    }

    void
    pop_front()
    {
        --used;
        head = used == 0 ? 0 : (head + 1) & mask;
    }

    const Flit &front() const { return slot(head); }

    /** @p i counted from the front (0 = head). */
    const Flit &
    operator[](std::size_t i) const
    {
        return slot((head + i) & mask);
    }

  private:
    Flit &slot(std::size_t k) const { return base[k * stride]; }

    Flit *base = nullptr;
    std::uint32_t stride = 0;
    std::uint32_t mask = 0; ///< ring slots - 1
    std::uint32_t head = 0;
    std::uint32_t used = 0;
};

class VcState
{
  public:
    /**
     * Stage-latency stamps for one pipelined grant, filled at issue
     * time and consumed at apply time.  Deliberately NOT stored in
     * VcState: the router keeps the stamps of a matching in a small
     * vector parallel to the matching itself (issue order equals
     * apply order), so the per-cycle VC scans never drag stamp bytes
     * through the cache and VcState stays at its pre-decomposition
     * size.
     *
     * grantCycle holds the low 32 bits of the issue cycle; the apply
     * path recovers the traversal delay with wrap-around u32
     * subtraction, exact for any pipeline latency below 2^32 cycles.
     * The waits saturate at ~4G cycles, far beyond any simulated gap.
     */
    struct GrantStamp
    {
        // mmr-lint: allow(cycle-type) the low 32 bits of a cycle,
        // recovered by wrap-around subtraction (see above)
        std::uint32_t grantCycle = 0; ///< low bits of the issue cycle
        std::uint32_t vcWait = 0;     ///< arrival -> head of the VC
        std::uint32_t arbWait = 0;    ///< head of VC -> grant issued
    };

    VcState() = default;
    /** A VC lives in its VcMemory: a copy would share its flit ring. */
    VcState(const VcState &) = delete;
    VcState &operator=(const VcState &) = delete;

    /** Reset to the unbound (free) state. */
    void release();

    /** Bind this VC to a connection. */
    void bindCbr(ConnId conn, unsigned alloc_cycles,
                 double inter_arrival);
    void bindVbr(ConnId conn, unsigned perm_cycles, unsigned peak_cycles,
                 double inter_arrival, int user_priority);
    void bindBestEffort(ConnId conn);
    void bindControl(ConnId conn);

    bool bound() const { return connId != kInvalidConn; }
    ConnId conn() const { return connId; }
    TrafficClass trafficClass() const { return klass; }

    /** Give this VC its ring of flit slots (VcMemory does, once). */
    void setFifo(const FlitFifo &f) { fifo = f; }

    /** FIFO interface backed by the VC memory.  Push/pop/head on an
     * unbound VC, or pop/head on an empty one, panic: silently
     * buffering into (or reading from) a free channel would corrupt
     * the flit-conservation ledger. */
    void
    push(const Flit &f)
    {
        if (!bound())
            mmr_panic("push() on unbound VC (flit seq ", f.seq, ")");
        // A flit landing in a VC with no other ungranted flit becomes
        // arbitration-eligible immediately: start its head-wait clock.
        if (!hasUngrantedFlit())
            headEligibleAt = f.readyTime;
        fifo.push_back(f);
    }

    Flit
    pop()
    {
        if (!bound())
            mmr_panic("pop() from unbound VC");
        if (fifo.empty())
            mmr_panic("pop() from empty VC");
        Flit f = fifo.front();
        fifo.pop_front();
        return f;
    }

    const Flit &
    head() const
    {
        if (!bound())
            mmr_panic("head() of unbound VC");
        if (fifo.empty())
            mmr_panic("head() of empty VC");
        return fifo.front();
    }

    bool empty() const { return fifo.empty(); }
    std::size_t depth() const { return fifo.size(); }

    /** Output mapping set up by the routing and arbitration unit. */
    void setMapping(PortId out_port, VcId out_vc);
    PortId outPort() const { return outputPort; }
    VcId outVc() const { return outputVc; }
    bool mapped() const { return outputPort != kInvalidPort; }

    /** Round bookkeeping (§4.1). */
    unsigned serviced() const { return servicedThisRound; }
    void noteServiced() { ++servicedThisRound; }
    void newRound() { servicedThisRound = 0; }

    /** Grants issued but not yet applied (pipelined arbitration). */
    unsigned pendingGrants() const { return grantsPending; }

    /** A VCT datagram segment frees this VC once it drains (§3.4);
     * the router reads the flag on the grant-apply path. */
    bool releaseWhenEmpty() const { return releaseEmpty; }
    void setReleaseWhenEmpty(bool r) { releaseEmpty = r; }

    /** Which of the segment's two VCs came from this router's pools
     * (a link input VC belongs to the upstream router's output pool);
     * removing the segment frees only those. */
    bool ownsInputVc() const { return ownsIn; }
    bool ownsOutputVc() const { return ownsOut; }
    void
    setOwnership(bool input_vc, bool output_vc)
    {
        ownsIn = input_vc;
        ownsOut = output_vc;
    }

    /**
     * Record a switch grant for the current ungranted head.  Stamps
     * the head's stage waits (VC residency, arbitration wait) into
     * @p s so the apply path can attribute them to the flit it pops;
     * the next flit in line — if any — becomes the eligible head at
     * @p now.
     */
    void
    noteGrantIssued(Cycle now, GrantStamp &s)
    {
        s.grantCycle = static_cast<std::uint32_t>(now);
        s.arbWait = clampWait(now > headEligibleAt
                                  ? now - headEligibleAt
                                  : 0);
        s.vcWait = 0;
        if (hasUngrantedFlit()) {
            const Flit &h = fifo[grantsPending]; // flit being granted
            s.vcWait = clampWait(headEligibleAt > h.readyTime
                                     ? headEligibleAt - h.readyTime
                                     : 0);
        }
        ++grantsPending;
        if (hasUngrantedFlit())
            headEligibleAt = now;
    }

    /** Grant-accounting-only form for callers that do not keep the
     * stage decomposition (unit tests). */
    void
    noteGrantIssued(Cycle now = 0)
    {
        GrantStamp scratch;
        noteGrantIssued(now, scratch);
    }

    /** Consume the oldest pending grant (the one applied to the flit
     * just popped); its stamps live in the router's matching-parallel
     * stamp vector. */
    void
    noteGrantApplied()
    {
        mmr_assert(grantsPending > 0, "applying a grant never issued");
        --grantsPending;
    }

    /** Flits available beyond those already granted. */
    bool hasUngrantedFlit() const { return fifo.size() > grantsPending; }

    /** Head flit not yet covered by a pending grant. */
    const Flit &
    ungrantedHead() const
    {
        mmr_assert(hasUngrantedFlit(), "no ungranted flit in VC");
        return fifo[grantsPending];
    }

    unsigned allocCycles() const { return cbrAlloc; }
    unsigned permCycles() const { return vbrPerm; }
    unsigned peakCycles() const { return vbrPeak; }
    double interArrival() const { return interArrivalCycles_; }
    int userPriority() const { return priority; }
    void setUserPriority(int p) { priority = p; }

    /** Dynamic bandwidth renegotiation (§4.3 control words). */
    void setCbrAlloc(unsigned alloc_cycles) { cbrAlloc = alloc_cycles; }
    void setVbrAlloc(unsigned perm, unsigned peak);
    void setInterArrival(double cycles) { interArrivalCycles_ = cycles; }

    /** Remaining quota this round given the service class (§4.3). */
    unsigned
    quotaThisRound() const
    {
        switch (klass) {
          case TrafficClass::CBR:
            return cbrAlloc;
          case TrafficClass::VBR:
            return vbrPeak;
          case TrafficClass::BestEffort:
          case TrafficClass::Control:
            // No reservation: bounded only by the round itself.
            return ~0u;
        }
        return 0;
    }

    /**
     * Stable arbitration tie-break, drawn once when the VC is bound.
     * A per-cycle random tie would scramble the service order of
     * equal-priority channels every cycle and destroy the periodic
     * service pattern that keeps CBR jitter low; a persistent value
     * keeps arbitration fair across connections yet stable in time.
     */
    double tieBreak() const { return tie; }
    void setTieBreak(double t) { tie = t; }

  private:
    ConnId connId = kInvalidConn;
    TrafficClass klass = TrafficClass::BestEffort;
    FlitFifo fifo;

    PortId outputPort = kInvalidPort;
    VcId outputVc = kInvalidVc;

    unsigned cbrAlloc = 0;   ///< CBR flit cycles/round
    unsigned vbrPerm = 0;    ///< VBR permanent cycles/round
    unsigned vbrPeak = 0;    ///< VBR peak cycles/round
    double interArrivalCycles_ = 0.0;
    int priority = 0;        ///< VBR user priority (dynamic)

    unsigned servicedThisRound = 0;
    unsigned grantsPending = 0;
    /** The three flags fill the 4-byte hole before `tie`. */
    bool releaseEmpty = false;
    bool ownsIn = false;
    bool ownsOut = false;
    double tie = 0.0;

    /** Saturate a cycle delta into a 32-bit stamp field. */
    static std::uint32_t
    clampWait(Cycle delta)
    {
        return delta > 0xffffffff
                   ? 0xffffffffu
                   : static_cast<std::uint32_t>(delta);
    }

    /** Cycle the current ungranted head became eligible (deposited
     * into an otherwise-drained VC, or promoted when the flit ahead
     * was granted). */
    Cycle headEligibleAt = 0;
};

/** The link scheduler scans VcStates every pass: keep them small. */
static_assert(sizeof(VcState) == 88, "VcState grew past 88 bytes");

} // namespace mmr

#endif // MMR_ROUTER_VC_STATE_HH
