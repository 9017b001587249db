/**
 * @file
 * Applies a FaultPlan to a live Network.
 *
 * The injector is a Clocked component registered ahead of the network:
 * each cycle it applies the plan's due link down/up events through
 * Network::failLink()/repairLink() (which tear down crossing
 * connections, recompute up*-down* routing and fire the failure hook),
 * and it owns the two stochastic fault hooks — flit corruption on
 * inter-router links and setup-message loss in the probe protocol —
 * each driven by its own seed-derived Rng so fault draws never perturb
 * the traffic models' random streams.
 */

#ifndef MMR_FAULT_INJECTOR_HH
#define MMR_FAULT_INJECTOR_HH

#include <cstdint>

#include "base/rng.hh"
#include "fault/fault_plan.hh"
#include "network/network.hh"
#include "sim/kernel.hh"

namespace mmr
{

class InvariantChecker;

class FaultInjector : public Clocked
{
  public:
    /**
     * Install the plan's stochastic hooks on @p net and prepare to
     * replay its events.  If the plan drops setup messages and the
     * probe manager has no setup timeout yet, a default timeout is
     * installed (a lost probe's reservations must be reclaimable).
     * @p seed feeds the corruption and probe-drop Rngs.
     */
    FaultInjector(Network &net, FaultPlan plan, std::uint64_t seed);

    /** Uninstalls the hooks this injector placed on the network. */
    ~FaultInjector() override;

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Apply every plan event whose cycle has arrived. */
    void evaluate(Cycle now) override;
    void advance(Cycle) override {}

    const FaultPlan &plan() const { return thePlan; }

    /** All scheduled events applied? */
    bool done() const { return nextEvent >= thePlan.events().size(); }

    std::uint64_t linkDownsApplied() const { return statDowns; }
    std::uint64_t linkUpsApplied() const { return statUps; }
    /** Events Network rejected (link already in that state). */
    std::uint64_t eventsSkipped() const { return statSkipped; }
    std::uint64_t flitsCorrupted() const { return statCorrupted; }
    std::uint64_t probeMessagesDropped() const { return statDropped; }

    /** Fall-back probe-protocol timeout installed when the plan drops
     * messages and nobody configured one. */
    static constexpr Cycle kDefaultSetupTimeout = 4096;

    /**
     * Register the injector's self-checks: the event cursor never
     * passes the plan's end, every due event has been applied by the
     * end of its cycle, and the applied/skipped ledger matches the
     * cursor.  The checker must tick after the injector.
     */
    void registerInvariants(InvariantChecker &chk,
                            unsigned period = 1) const;

  private:
    Network &net;
    FaultPlan thePlan;
    std::size_t nextEvent = 0;
    Rng corruptRng;
    Rng dropRng;
    std::uint64_t statDowns = 0;
    std::uint64_t statUps = 0;
    std::uint64_t statSkipped = 0;
    std::uint64_t statCorrupted = 0;
    std::uint64_t statDropped = 0;
};

} // namespace mmr

#endif // MMR_FAULT_INJECTOR_HH
