/**
 * @file
 * Bandwidth allocation and admission control (§4.2).
 *
 * Each output link keeps a register with the total flit cycles/round
 * already allocated to CBR connections (plus VBR permanent bandwidth),
 * and a second register with the total peak bandwidth requested by VBR
 * connections.  A CBR request is admitted while the first register
 * stays within the round; a VBR request additionally requires the peak
 * register to stay within round x concurrency factor.  A fraction of
 * the round may be reserved for best-effort traffic to prevent its
 * starvation.
 */

#ifndef MMR_ROUTER_ADMISSION_HH
#define MMR_ROUTER_ADMISSION_HH

#include <vector>

#include "base/types.hh"

namespace mmr
{

class AdmissionController
{
  public:
    /**
     * @param num_ports output links under control
     * @param cycles_per_round round length in flit cycles (K x V)
     * @param concurrency_factor VBR statistical-multiplexing factor
     * @param best_effort_reserve fraction of the round withheld from
     *        reservations so best-effort traffic cannot starve
     */
    AdmissionController(unsigned num_ports, unsigned cycles_per_round,
                        double concurrency_factor,
                        double best_effort_reserve);

    /** Try to reserve CBR bandwidth on an output link. */
    bool tryAdmitCbr(PortId out, unsigned alloc_cycles);

    /** Release a CBR reservation (connection teardown). */
    void releaseCbr(PortId out, unsigned alloc_cycles);

    /** Try to reserve VBR permanent + peak bandwidth. */
    bool tryAdmitVbr(PortId out, unsigned perm_cycles,
                     unsigned peak_cycles);

    void releaseVbr(PortId out, unsigned perm_cycles,
                    unsigned peak_cycles);

    /** Renegotiate an existing CBR reservation; false if infeasible. */
    bool renegotiateCbr(PortId out, unsigned old_cycles,
                        unsigned new_cycles);

    /** Guaranteed cycles/round currently allocated on a link. */
    unsigned allocatedCycles(PortId out) const;

    /** Total VBR peak cycles/round registered on a link. */
    unsigned peakCycles(PortId out) const;

    /** Cycles/round still available for reservation. */
    unsigned availableCycles(PortId out) const;

    /** Reservation ceiling per round (round minus the BE reserve). */
    unsigned reservableCycles() const { return reservable; }

    double concurrency() const { return concurrencyFactor; }

  private:
    struct LinkRegisters
    {
        unsigned allocated = 0; ///< CBR + VBR permanent cycles/round
        unsigned peak = 0;      ///< sum of VBR peak cycles/round
    };

    unsigned reservable;
    double concurrencyFactor;
    std::vector<LinkRegisters> links;

    LinkRegisters &regs(PortId out);
    const LinkRegisters &regs(PortId out) const;
};

} // namespace mmr

#endif // MMR_ROUTER_ADMISSION_HH
