#include "fault/recovery.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/simclock.hh"
#include "obs/flight_recorder.hh"
#include "sim/invariant.hh"

namespace mmr
{

RecoveryManager::RecoveryManager(Network &net_, RecoveryConfig cfg_,
                                 std::uint64_t seed)
    : net(net_), cfg(cfg_), rng(seed ^ 0x8ecf0e11ab1e5eedULL)
{
    if (!cfg.enabled)
        return;
    if (!cfg.zeroTime && cfg.setupTimeoutCycles != 0)
        net.probes().setSetupTimeout(cfg.setupTimeoutCycles);
    net.setConnectionFailureHook(
        [this](ConnId id, NodeId, NodeId, TrafficClass) {
            onFailure(id, simclock::now());
        });
}

RecoveryManager::~RecoveryManager()
{
    if (cfg.enabled)
        net.setConnectionFailureHook(nullptr);
}

void
RecoveryManager::adopt(ConnId id, const RecoverySpec &spec)
{
    mmr_assert(id != kInvalidConn, "cannot adopt an invalid connection");
    mmr_assert(spec.klass == TrafficClass::CBR ||
                   spec.klass == TrafficClass::VBR,
               "recovery adopts CBR/VBR connections only");
    specs[id] = spec;
}

void
RecoveryManager::forget(ConnId id)
{
    specs.erase(id);
}

bool
RecoveryManager::pollStatus(ConnId failed_id, RecoveryStatus &out)
{
    const auto it = results.find(failed_id);
    if (it == results.end())
        return false;
    out = it->second;
    if (out.state != RecoveryState::Recovering)
        results.erase(it);
    return true;
}

void
RecoveryManager::onFailure(ConnId id, Cycle now)
{
    const auto it = specs.find(id);
    if (it == specs.end())
        return; // not adopted: fails like the pre-recovery network
    ++statFailures;
    Attempt a;
    a.origId = id;
    a.spec = it->second;
    specs.erase(it); // the failed id is dead; replacement re-adopted
    results[id] = RecoveryStatus{};
    MMR_OBS_EVENT(TraceCat::Fault, "recovery_start", now,
                  a.spec.src, id,
                  static_cast<std::int32_t>(a.spec.dst));
    if (cfg.zeroTime) {
        finish(a, launch(a, now), now);
        return;
    }
    a.nextTryAt = now + backoffFor(1);
    active.push_back(a);
}

Cycle
RecoveryManager::backoffFor(unsigned attempt)
{
    mmr_assert(attempt >= 1, "backoff is for launch numbers >= 1");
    const unsigned shift = std::min(attempt - 1, 32u);
    Cycle delay = cfg.baseBackoffCycles << shift;
    if (delay > cfg.maxBackoffCycles || delay < cfg.baseBackoffCycles)
        delay = cfg.maxBackoffCycles; // cap (also catches overflow)
    // Scale by 1 ± U(0, kJitter) so simultaneous failures don't retry
    // in lockstep.
    constexpr double kJitter = 0.25;
    const double f = 1.0 + kJitter * (rng.uniform() * 2.0 - 1.0);
    delay = static_cast<Cycle>(static_cast<double>(delay) * f);
    return std::max<Cycle>(delay, 1);
}

Network::SetupOutcome
RecoveryManager::launch(Attempt &a, Cycle now)
{
    ++a.attempt;
    ++statRetries;
    const RecoverySpec &s = a.spec;
    const bool cbr = s.klass == TrafficClass::CBR;
    Network::SetupOutcome opened;
    if (cfg.zeroTime) {
        opened = cbr ? net.openCbr(s.src, s.dst, s.rateOrMeanBps)
                     : net.openVbr(s.src, s.dst, s.rateOrMeanBps,
                                   s.peakBps, s.priority);
    } else {
        a.token = cbr ? net.openCbrTimed(s.src, s.dst, s.rateOrMeanBps,
                                         now)
                      : net.openVbrTimed(s.src, s.dst, s.rateOrMeanBps,
                                         s.peakBps, s.priority, now);
        a.haveToken = true;
    }
    MMR_OBS_EVENT(TraceCat::Fault, "recovery_retry", now, s.src,
                  a.origId, static_cast<std::int32_t>(a.attempt));
    return opened;
}

void
RecoveryManager::finish(const Attempt &a,
                        const Network::SetupOutcome &replacement,
                        Cycle now)
{
    RecoveryStatus &st = results[a.origId];
    st.attempts = a.attempt;
    if (!replacement.accepted) {
        st.state = RecoveryState::Abandoned;
        ++statAbandoned;
        MMR_OBS_EVENT(TraceCat::Fault, "recovery_abandoned", now,
                      a.spec.src, a.origId,
                      static_cast<std::int32_t>(a.attempt));
        return;
    }
    st.state = RecoveryState::Recovered;
    st.replacement = replacement.id;
    st.replacementHandle = replacement.handle;
    ++statRecovered;
    // Keep the replacement covered against later faults.
    specs[replacement.id] = a.spec;
    MMR_OBS_EVENT(TraceCat::Fault, "recovery_rerouted", now, a.spec.src,
                  a.origId, static_cast<std::int32_t>(replacement.id));
}

void
RecoveryManager::evaluate(Cycle now)
{
    for (std::size_t i = 0; i < active.size();) {
        Attempt &a = active[i];
        if (a.haveToken) {
            Network::SetupOutcome r;
            if (!net.takeTimedResult(a.token, r)) {
                ++i; // probe still in flight
                continue;
            }
            a.haveToken = false;
            if (r.accepted || a.attempt >= cfg.maxRetries) {
                finish(a, r, now);
                // Black-box snapshot: a spent retry budget is the
                // fault subsystem's terminal failure — dump the events
                // that led here while they are still in the ring.  A
                // zero-time refusal dumps nothing: its cause is the
                // setup_reject just before it, and a partition would
                // write one dump per stream it cuts.
                if (!r.accepted)
                    FlightRecorder::dumpActive("recovery_abandoned");
                active.erase(active.begin() +
                             static_cast<std::ptrdiff_t>(i));
                continue;
            }
            a.nextTryAt = now + backoffFor(a.attempt + 1);
        } else if (now >= a.nextTryAt) {
            launch(a, now);
        }
        ++i;
    }
}

void
RecoveryManager::registerInvariants(InvariantChecker &chk,
                                    unsigned period) const
{
    chk.add(
        "recovery-attempts",
        [this](Cycle) {
            for (const Attempt &a : active) {
                if (a.origId == kInvalidConn) {
                    mmr_invariant_violated(
                        "recovery-attempts",
                        "active attempt with invalid failed id");
                }
                if (a.attempt > cfg.maxRetries) {
                    mmr_invariant_violated(
                        "recovery-attempts", "conn ", a.origId,
                        " launched ", a.attempt,
                        " setups, budget is ", cfg.maxRetries);
                }
                const auto it = results.find(a.origId);
                if (it == results.end() ||
                    it->second.state != RecoveryState::Recovering) {
                    mmr_invariant_violated(
                        "recovery-attempts", "conn ", a.origId,
                        " active without a Recovering status entry");
                }
            }
        },
        period);
    chk.add(
        "recovery-ledger",
        [this](Cycle) {
            if (statRecovered + statAbandoned + active.size() !=
                statFailures) {
                mmr_invariant_violated(
                    "recovery-ledger", "recovered ", statRecovered,
                    " + abandoned ", statAbandoned, " + active ",
                    active.size(), " != failures seen ", statFailures);
            }
        },
        period);
}

} // namespace mmr
