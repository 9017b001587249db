/**
 * @file
 * Switch scheduling (§4.4, §5.1).
 *
 * Input-driven schemes: each link scheduler offers a ranked candidate
 * set, and the switch scheduler resolves output-port conflicts to compute
 * the input/output matching applied in the next flit cycle.  Four
 * algorithms from the paper plus one extension:
 *
 *  - GreedyPriority: global arbitration by (service tier, priority),
 *    used with biased or fixed priorities — the MMR scheme and the
 *    fixed-priority baseline of §5.1;
 *  - Autonet: Anderson et al.'s random iterative matching (the DEC
 *    comparison point);
 *  - Islip: round-robin iterative matching (extension baseline,
 *    cf. ref [21] Mekkittikul & McKeown);
 *  - Perfect: N-times-speedup switch with no port conflicts, the
 *    delay/jitter lower bound of §5.1.
 *
 * The per-cycle entry point is scheduleInto(), which writes the
 * matching into a caller-owned vector so the router can reuse one
 * Matching across cycles; every implementation likewise keeps its
 * working arrays as members, so a steady-state schedule computes no
 * heap allocation at all.  schedule() remains as a convenience
 * wrapper returning the matching by value.
 */

#ifndef MMR_ROUTER_SWITCH_SCHED_HH
#define MMR_ROUTER_SWITCH_SCHED_HH

#include <memory>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "router/config.hh"
#include "router/link_sched.hh"

namespace mmr
{

/** The computed input/output assignment for one flit cycle. */
using Matching = std::vector<Candidate>;

class SwitchScheduler
{
  public:
    virtual ~SwitchScheduler() = default;

    /**
     * Compute the matching for the next flit cycle into @p out
     * (cleared first).  The caller owns @p out and is expected to
     * reuse it across cycles so its capacity persists.
     *
     * @param per_input candidate sets, indexed by input port: list p
     *        holds input p's candidates ranked best first by (tier,
     *        prio, tie), naming each output port (< the switch's port
     *        count) at most once — the order
     *        LinkScheduler::collectCandidates emits
     * @param rng arbitration randomness
     * @param out receives the matching
     */
    MMR_HOT_PATH virtual void scheduleInto(
        const std::vector<std::vector<Candidate>> &per_input, Rng &rng,
        Matching &out) = 0;

    /** Convenience wrapper returning the matching by value. */
    Matching
    schedule(const std::vector<std::vector<Candidate>> &per_input,
             Rng &rng)
    {
        Matching m;
        scheduleInto(per_input, rng, m);
        return m;
    }

    /** Whether output ports may be granted to several inputs. */
    virtual bool allowsOutputSharing() const { return false; }

    virtual std::string name() const = 0;

    /**
     * Check matching legality: at most one grant per input, and at
     * most one per output unless sharing is allowed.
     */
    static bool validate(const Matching &m, unsigned num_ports,
                         bool allow_output_sharing);

    /**
     * Panic variant of validate(): reports the offending grant through
     * the 'matching-validity' invariant.  Used by the runtime invariant
     * auditor on the matching applied each flit cycle.
     */
    static void auditMatching(const Matching &m, unsigned num_ports,
                              bool allow_output_sharing);

    /** Instantiate the scheduler selected by the configuration. */
    static std::unique_ptr<SwitchScheduler> create(
        const RouterConfig &cfg);
};

/** Global (tier, priority) arbitration: MMR biased/fixed schemes. */
class GreedyPriorityScheduler : public SwitchScheduler
{
  public:
    explicit GreedyPriorityScheduler(unsigned num_ports);

    void scheduleInto(const std::vector<std::vector<Candidate>> &per_input,
                      Rng &rng, Matching &out) override;
    std::string name() const override { return "greedy-priority"; }

  private:
    unsigned numPorts;

    // Per-cycle scratch, reused so steady state allocates nothing.
    std::vector<unsigned> holder;          ///< per output: holding input
    std::vector<const Candidate *> choice; ///< per input: won candidate
    std::vector<bool> visited;
    std::vector<bool> inTaken;
    std::vector<bool> outTaken;

    // Per-input cursors and the bounds of the current tier's run
    // inside each ranked candidate list.
    std::vector<std::uint32_t> segPos;
    std::vector<std::uint32_t> segBegin;
    std::vector<std::uint32_t> segEnd;
    std::vector<unsigned> attemptOrder;
};

/**
 * Output-driven arbitration (§4.4): "output-driven schemes consider
 * the set of input virtual channels requesting a given output link" —
 * each output grants its best requester, each input accepts its best
 * grant, iterated.  The paper argues this is superior for fully
 * de-multiplexed switches but unclear for multiplexed ones; the
 * input_vs_output_driven bench quantifies the comparison.
 */
class OutputDrivenScheduler : public SwitchScheduler
{
  public:
    OutputDrivenScheduler(unsigned num_ports, unsigned iterations);

    void scheduleInto(const std::vector<std::vector<Candidate>> &per_input,
                      Rng &rng, Matching &out) override;
    std::string name() const override { return "output-driven"; }

  private:
    unsigned numPorts;
    unsigned iters;

    std::vector<const Candidate *> grant;  ///< scratch, per output
    std::vector<const Candidate *> accept; ///< scratch, per input
    /** Outputs granted / inputs accepting this iteration: grant[] and
     * accept[] entries are valid only where the bit is set, so the
     * per-iteration pointer fills collapse to word-wide clears and the
     * accept/commit scans walk set bits only (§4.1 status-vector
     * style). */
    BitVector grantMask;
    BitVector acceptMask;
    std::vector<bool> inUsed;
    std::vector<bool> outUsed;
};

/** Random request/grant/accept iterative matching (Autonet / PIM). */
class AutonetScheduler : public SwitchScheduler
{
  public:
    AutonetScheduler(unsigned num_ports, unsigned iterations);

    void scheduleInto(const std::vector<std::vector<Candidate>> &per_input,
                      Rng &rng, Matching &out) override;
    std::string name() const override { return "autonet"; }

  private:
    unsigned numPorts;
    unsigned iters;

    std::vector<std::vector<const Candidate *>> requests; ///< per out
    std::vector<const Candidate *> grants;
    std::vector<std::vector<const Candidate *>> offers; ///< per input
    std::vector<bool> inUsed;
    std::vector<bool> outUsed;
};

/** Round-robin iterative matching (iSLIP-style extension baseline). */
class IslipScheduler : public SwitchScheduler
{
  public:
    IslipScheduler(unsigned num_ports, unsigned iterations);

    void scheduleInto(const std::vector<std::vector<Candidate>> &per_input,
                      Rng &rng, Matching &out) override;
    std::string name() const override { return "islip"; }

  private:
    unsigned numPorts;
    unsigned iters;
    std::vector<unsigned> grantPtr;  ///< per output, over inputs
    std::vector<unsigned> acceptPtr; ///< per input, over outputs

    std::vector<const Candidate *> req; ///< out×in matrix, flattened
    std::vector<const Candidate *> grant;
    /** reqMask[o] bit i: req[o*N+i] holds a live request.  The grant
     * stage round-robin becomes one findFirstWrap (two word walks)
     * instead of an N-step pointer scan, and req[] itself never needs
     * re-nulling — stale entries are unreachable once the mask is
     * cleared. */
    std::vector<BitVector> reqMask;
    /** grantForIn[in] bit o: grant[o] targets input `in`; the accept
     * stage round-robin is likewise one findFirstWrap. */
    std::vector<BitVector> grantForIn;
    std::vector<bool> inUsed;
    std::vector<bool> outUsed;
};

/** N-times speedup switch: every input's best candidate is granted. */
class PerfectSwitchScheduler : public SwitchScheduler
{
  public:
    void scheduleInto(const std::vector<std::vector<Candidate>> &per_input,
                      Rng &rng, Matching &out) override;
    bool allowsOutputSharing() const override { return true; }
    std::string name() const override { return "perfect"; }
};

} // namespace mmr

#endif // MMR_ROUTER_SWITCH_SCHED_HH
