/**
 * @file
 * Virtual Channel Memory (§3.2, Figure 2).
 *
 * The MMR organizes each input port's virtual channels as a set of
 * low-order-interleaved RAM modules: each flit is striped across the
 * banks, flits of one VC occupy adjacent location sets, the write
 * address comes from the flow-control circuitry and the read address
 * from the link scheduler.
 *
 * This file provides (a) the functional storage — one FIFO per VC,
 * each bounded by the per-VC depth limit, all in one flit slab per
 * input port — and (b) the timing model used to balance "memory
 * access time, link speed, and crossbar switching delay": a static
 * analysis of the bandwidth a bank configuration sustains, exercised
 * by bench_vc_memory.
 *
 * The slab is an anonymous page mapping laid out slot-major (slot k
 * of every VC is adjacent) and never written at construction, so the
 * host backs only the pages flits have landed in: since a drained
 * FIFO restarts at slot 0, a VC that never holds two flits at once
 * touches one slot, and only a VC that fills toward its depth touches
 * its whole column.
 */

#ifndef MMR_ROUTER_VC_MEMORY_HH
#define MMR_ROUTER_VC_MEMORY_HH

#include <memory>
#include <vector>

#include "base/bitvector.hh"
#include "base/logging.hh"
#include "router/vc_state.hh"

namespace mmr
{

/** Static timing/bandwidth model of the interleaved buffer memory. */
struct VcMemoryModel
{
    unsigned banks = 8;        ///< number of interleaved RAM modules
    unsigned wordBits = 32;    ///< router internal datapath width
    double accessTimeNs = 6.0; ///< RAM module cycle time
    unsigned portsPerBank = 1; ///< 1 = single-ported (shared r/w)

    /** Words of storage one flit occupies. */
    unsigned wordsPerFlit(unsigned flit_bits) const;

    /**
     * Sustainable per-link bandwidth in bits/s: the banks must absorb
     * one flit write and supply one flit read per flit cycle.
     */
    double sustainableRateBps(unsigned flit_bits) const;

    /** Cycles (of accessTimeNs) needed to stream one flit in or out. */
    double flitAccessNs(unsigned flit_bits) const;

    /** True when the configuration keeps up with the given link. */
    bool matchesLink(unsigned flit_bits, double link_rate_bps) const;

    /**
     * Minimum bank count that sustains the link rate, holding the
     * other parameters fixed.
     */
    static unsigned minBanksFor(double link_rate_bps, unsigned flit_bits,
                                unsigned word_bits, double access_ns,
                                unsigned ports_per_bank = 1);
};

/** Unmaps a VcMemory's flit slab of @c bytes bytes. */
struct FlitSlabUnmap
{
    std::size_t bytes = 0;
    void operator()(Flit *p) const;
};

/** Functional per-input-port VC buffer memory. */
class VcMemory
{
  public:
    /**
     * Maps (but does not touch) the flit slab; throws std::bad_alloc
     * when the mapping fails.
     *
     * @param vcs number of virtual channels at this input port
     * @param per_vc_depth per-VC depth limit in flits
     */
    VcMemory(unsigned vcs, unsigned per_vc_depth);

    unsigned numVcs() const { return static_cast<unsigned>(vcs.size()); }

    VcState &
    vc(VcId v)
    {
        mmr_assert(v < vcs.size(), "VC ", v, " out of range");
        return vcs[v];
    }

    const VcState &
    vc(VcId v) const
    {
        mmr_assert(v < vcs.size(), "VC ", v, " out of range");
        return vcs[v];
    }

    /**
     * Store an arriving flit into its VC; false (and counted) when the
     * VC is at its depth limit — upstream flow control should have
     * prevented this.
     */
    bool
    deposit(VcId v, const Flit &f)
    {
        VcState &state = vc(v);
        if (state.depth() >= perVcDepth) {
            ++overflows;
            return false;
        }
        state.push(f);
        ++occupied;
        flitsAvail.set(v);
        return true;
    }

    /** Flits currently buffered across all VCs. */
    std::size_t occupancy() const { return occupied; }

    /** Rejected deposits (buffer overflow attempts). */
    std::uint64_t overflowCount() const { return overflows; }

    /** Per-VC free space in flits. */
    unsigned
    freeSlots(VcId v) const
    {
        const auto d = static_cast<unsigned>(vc(v).depth());
        return d >= perVcDepth ? 0 : perVcDepth - d;
    }

    /** Bit vector of VCs with at least one buffered flit (§4.1
     * flits_available).  It is the only status vector the memory
     * keeps: the link scheduler walks it on every pass and reads the
     * rest of each VC's eligibility from the VC itself. */
    const BitVector &flitsAvailable() const { return flitsAvail; }

    /** Called by the router when a flit leaves a VC. */
    void
    noteDrained(VcId v)
    {
        mmr_assert(occupied > 0, "drain with zero occupancy");
        --occupied;
        if (vc(v).empty())
            flitsAvail.clear(v);
    }

    /**
     * Occupancy conservation audit ('vc-occupancy'); panics when the
     * shared occupancy counter, the per-VC FIFO depths, the per-VC
     * depth limit, or the flits-available bit vector disagree.
     */
    void auditOccupancy() const;

    /**
     * VC state-machine legality audit ('vc-legality'); panics when a
     * free VC still holds flits, a mapping, or pending grants, or when
     * a mapped VC is not bound.
     */
    void auditLegality() const;

  private:
    std::vector<VcState> vcs;
    unsigned perVcDepth;
    /** numVcs() x ring slots, slot-major.  The VCs' FIFOs point into
     * it; a move hands over both, so they stay valid. */
    std::unique_ptr<Flit, FlitSlabUnmap> slab;
    std::size_t occupied = 0;
    std::uint64_t overflows = 0;
    BitVector flitsAvail;
};

} // namespace mmr

#endif // MMR_ROUTER_VC_MEMORY_HH
