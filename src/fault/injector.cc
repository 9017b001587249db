#include "fault/injector.hh"

#include "base/logging.hh"
#include "sim/invariant.hh"

namespace mmr
{

FaultInjector::FaultInjector(Network &net_, FaultPlan plan,
                             std::uint64_t seed)
    : net(net_), thePlan(std::move(plan)),
      corruptRng(seed ^ 0xc0ffee0ddfaded11ULL),
      dropRng(seed ^ 0x9d70bab1e5e7d09fULL)
{
    const FaultModel &m = thePlan.model();
    if (m.corruptRate > 0.0) {
        net.setLinkCorruptHook(
            [this, rate = m.corruptRate](NodeId, PortId, const Flit &) {
                if (!corruptRng.chance(rate))
                    return false;
                ++statCorrupted;
                return true;
            });
    }
    if (m.probeDropRate > 0.0) {
        if (net.probes().setupTimeout() == 0)
            net.probes().setSetupTimeout(kDefaultSetupTimeout);
        net.probes().setMessageLoss(
            [this, rate = m.probeDropRate](const TimedSetup &) {
                if (!dropRng.chance(rate))
                    return false;
                ++statDropped;
                return true;
            });
    }
}

FaultInjector::~FaultInjector()
{
    if (thePlan.model().corruptRate > 0.0)
        net.setLinkCorruptHook(nullptr);
    if (thePlan.model().probeDropRate > 0.0)
        net.probes().setMessageLoss(nullptr);
}

void
FaultInjector::evaluate(Cycle now)
{
    const auto &events = thePlan.events();
    while (nextEvent < events.size() && events[nextEvent].at <= now) {
        const FaultEvent &ev = events[nextEvent++];
        if (ev.kind == FaultEvent::Kind::LinkDown) {
            if (net.failLink(ev.a, ev.b))
                ++statDowns;
            else
                ++statSkipped;
        } else {
            if (net.repairLink(ev.a, ev.b))
                ++statUps;
            else
                ++statSkipped;
        }
    }
}

void
FaultInjector::registerInvariants(InvariantChecker &chk,
                                  unsigned period) const
{
    chk.add(
        "fault-event-cursor",
        [this](Cycle now) {
            const auto &events = thePlan.events();
            if (nextEvent > events.size()) {
                mmr_invariant_violated(
                    "fault-event-cursor", "cursor ", nextEvent,
                    " past plan end ", events.size());
            }
            // The injector ticks before the checker, so by audit time
            // every event due at `now` must have been applied.
            if (nextEvent < events.size() &&
                events[nextEvent].at <= now) {
                mmr_invariant_violated(
                    "fault-event-cursor", "event ", nextEvent,
                    " due at cycle ", events[nextEvent].at,
                    " still unapplied at cycle ", now);
            }
        },
        period);
    chk.add(
        "fault-event-ledger",
        [this](Cycle) {
            if (statDowns + statUps + statSkipped != nextEvent) {
                mmr_invariant_violated(
                    "fault-event-ledger", "applied ", statDowns, "+",
                    statUps, "+", statSkipped,
                    " events but cursor is at ", nextEvent);
            }
        },
        period);
}

} // namespace mmr
