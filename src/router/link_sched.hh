/**
 * @file
 * Per-input-link scheduler (§4.1, §4.3, Figure 1 "LS").
 *
 * Each physical input link has its own scheduler that, every flit
 * cycle, derives the set of virtual channels eligible to transmit
 * (status bit-vector algebra: flits_available AND credits_available
 * AND not over quota) and offers the switch scheduler a small set of
 * candidates (1-8).  The set is computed afresh on every pass from
 * the VC state and credit counters themselves, so a change to a VC
 * needs no notification.  Bandwidth is accounted per round (K x V
 * flit cycles): CBR connections may not exceed their allocation, VBR
 * connections get their permanent bandwidth at the guaranteed tier and
 * compete for excess up to their peak by user priority, best-effort
 * uses whatever is left.
 */

#ifndef MMR_ROUTER_LINK_SCHED_HH
#define MMR_ROUTER_LINK_SCHED_HH

#include <vector>

#include "base/bitvector.hh"
#include "base/types.hh"
#include "router/flow_control.hh"
#include "router/priority.hh"
#include "router/vc_memory.hh"

namespace mmr
{

/** One scheduling candidate offered to the switch scheduler. */
struct Candidate
{
    PortId in = kInvalidPort;
    VcId vc = kInvalidVc;
    PortId out = kInvalidPort;
    VcId outVc = kInvalidVc;
    ConnId conn = kInvalidConn;
    int tier = 0;       ///< ServiceTier as int, larger served first
    double prio = 0.0;  ///< priority within the tier
    double tie = 0.0;   ///< random tie-break drawn per cycle
};

class LinkScheduler
{
  public:
    /**
     * @param port input port this scheduler serves
     * @param memory the port's virtual channel memory
     * @param num_ports router port count (output-port id range)
     * @param policy head-flit priority policy
     * @param cycles_per_round round length (K x V)
     */
    LinkScheduler(PortId port, VcMemory *memory, unsigned num_ports,
                  PriorityPolicy policy, unsigned cycles_per_round);

    /**
     * Reset per-round serviced counters at round boundaries.  Rounds
     * are aligned across the router (synchronous link operation).
     */
    void rollRoundIfNeeded(Cycle now);

    /**
     * Collect up to @p max_candidates eligible candidates at cycle
     * @p now, appending to @p out.  The appended run is ranked best
     * first by (tier, prio, tie) and names each output port at most
     * once: the contract of SwitchScheduler::scheduleInto.
     *
     * @param credits downstream credit state (credits_available)
     */
    MMR_HOT_PATH void collectCandidates(Cycle now,
                                        unsigned max_candidates,
                                        const CreditManager &credits,
                                        std::vector<Candidate> &out);

    /**
     * The eligibility mask as a bit vector — the §4.1 status-vector
     * AND, exposed for tests.
     */
    BitVector eligibleMask(Cycle now, const CreditManager &credits) const;

    /** Rounds completed so far. */
    std::uint64_t roundCount() const { return rounds; }

  private:
    bool eligible(const VcState &vc, const CreditManager &credits) const;

    PortId inPort;
    VcMemory *mem;
    unsigned numOutPorts; ///< sizes the per-output dedup table
    PriorityPolicy prioPolicy;
    unsigned roundLen;
    Cycle nextRoundStart;
    std::uint64_t rounds = 0;

    /** Scratch space reused across cycles to avoid allocation. */
    std::vector<Candidate> scratch;
    std::vector<VcId> bestPerOutput;        ///< per-output dedup slots
    std::vector<std::size_t> touchedOutputs; ///< slots to reset
};

} // namespace mmr

#endif // MMR_ROUTER_LINK_SCHED_HH
