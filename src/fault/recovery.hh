/**
 * @file
 * Connection recovery after link failures.
 *
 * When a link dies, Network::failLink() marks every PCS connection
 * crossing it failed and fires the connection-failure hook.  The
 * RecoveryManager, the one re-establishment path, subscribes to that
 * hook and re-establishes adopted connections end to end: it re-runs
 * the timed EPB probe/ack setup over the surviving
 * topology — so the replacement path is found by the same distributed
 * protocol as the original, contending with live traffic and other
 * recoveries in simulated time — under a bounded exponential-backoff
 * retry schedule with jitter, and abandons the connection once the
 * retry budget is spent (e.g. the destination became unreachable).
 * In zero-time mode (RecoveryConfig::zeroTime) it runs one zero-time
 * setup inside the hook instead, so the failure is Recovered or
 * Abandoned before failLink() returns.
 *
 * The recovery state machine per failed connection:
 *
 *     failure hook ──▶ Recovering ──(setup accepted)──▶ Recovered(new)
 *                          │  ▲
 *                 (refused)│  │ backoff: min(base·2^k, max) ± jitter
 *                          ▼  │
 *                       waiting ──(retries exhausted)──▶ Abandoned
 *
 * Refusals cost nothing durable: a refused or timed-out probe has
 * already released every hop reservation, so the admission ledger
 * stays exact throughout (audited by the admission-ledger invariant).
 * All randomness (jitter) comes from a seed-derived Rng, keeping
 * recovery fully deterministic.
 */

#ifndef MMR_FAULT_RECOVERY_HH
#define MMR_FAULT_RECOVERY_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"
#include "network/network.hh"
#include "sim/kernel.hh"

namespace mmr
{

class InvariantChecker;

struct RecoveryConfig
{
    /** Construct-but-disable convenience for sweeps contrasting
     * recovery on/off; a disabled manager installs no hook. */
    bool enabled = true;

    /** One zero-time setup (Network::openCbr/openVbr) inside the
     * failure hook instead of timed retries: the retry, backoff and
     * timeout fields below do not apply, and there is no per-cycle
     * work. */
    bool zeroTime = false;

    /** Re-setup attempts per failure before abandoning. */
    unsigned maxRetries = 8;

    /** First retry fires this many cycles after the failure. */
    Cycle baseBackoffCycles = 64;

    /** Exponential backoff ceiling. */
    Cycle maxBackoffCycles = 8192;

    /**
     * Installed as the probe protocol's source-side setup timer (0
     * keeps the network's current setting).  Bounds how long one
     * re-setup attempt can hold reservations.
     */
    Cycle setupTimeoutCycles = 2048;
};

/** What to re-request when an adopted connection fails. */
struct RecoverySpec
{
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    TrafficClass klass = TrafficClass::CBR;
    double rateOrMeanBps = 0.0; ///< CBR rate / VBR mean
    double peakBps = 0.0;       ///< VBR only
    int priority = 0;           ///< VBR only
};

enum class RecoveryState
{
    Recovering, ///< retries in progress
    Recovered,  ///< replacement connection established
    Abandoned   ///< retry budget exhausted
};

struct RecoveryStatus
{
    RecoveryState state = RecoveryState::Recovering;
    /** The replacement connection, valid once Recovered: its label
     * and its handle. */
    ConnId replacement = kInvalidConn;
    Network::Handle replacementHandle;
    unsigned attempts = 0; ///< setups launched so far
};

class RecoveryManager : public Clocked
{
  public:
    /**
     * Subscribe to @p net's connection-failure hook (when enabled) and,
     * for timed recovery, install the configured setup timeout.
     * @p seed drives backoff jitter.
     */
    RecoveryManager(Network &net, RecoveryConfig cfg,
                    std::uint64_t seed);

    /** Unhooks from the network. */
    ~RecoveryManager() override;

    RecoveryManager(const RecoveryManager &) = delete;
    RecoveryManager &operator=(const RecoveryManager &) = delete;

    /**
     * Register a connection for recovery.  Unadopted connections fail
     * without recovery (the pre-fault behavior).  On successful
     * recovery the replacement is adopted automatically with the same
     * spec, so repeated failures keep being repaired.
     */
    void adopt(ConnId id, const RecoverySpec &spec);

    /** Drop a connection from recovery (e.g. host closed it). */
    void forget(ConnId id);

    bool adopted(ConnId id) const { return specs.count(id) != 0; }

    /**
     * Poll the recovery of the *failed* connection @p failed_id: copy
     * its status into @p out.  A final status (Recovered or Abandoned)
     * is dropped once read, as Network::takeTimedResult() drops a
     * setup outcome, so the table holds only unresolved and unclaimed
     * recoveries.  False when the id never failed while adopted or its
     * final status was already taken.
     */
    bool pollStatus(ConnId failed_id, RecoveryStatus &out);

    void evaluate(Cycle now) override;
    void advance(Cycle) override {}

    const RecoveryConfig &config() const { return cfg; }

    std::uint64_t failuresSeen() const { return statFailures; }
    std::uint64_t retriesLaunched() const { return statRetries; }
    std::uint64_t connectionsRecovered() const { return statRecovered; }
    std::uint64_t connectionsAbandoned() const { return statAbandoned; }
    std::size_t activeRecoveries() const { return active.size(); }

    /**
     * Register the recovery ledger self-checks: every active attempt
     * is well-formed (valid failed id, launch count within the retry
     * budget, a Recovering status entry), and completed + active
     * recoveries always account for every failure seen.
     */
    void registerInvariants(InvariantChecker &chk,
                            unsigned period = 1) const;

  private:
    struct Attempt
    {
        ConnId origId = kInvalidConn;
        RecoverySpec spec;
        unsigned attempt = 0; ///< setups launched
        Cycle nextTryAt = 0;
        std::uint64_t token = 0;
        bool haveToken = false;
    };

    void onFailure(ConnId id, Cycle now);

    /** Launch setup number a.attempt + 1: a timed probe (token kept in
     * @p a), or the whole zero-time setup, whose outcome is returned
     * (not accepted when refused or timed). */
    Network::SetupOutcome launch(Attempt &a, Cycle now);

    /** Record @p a's final status: Recovered onto the connection
     * @p replacement opened (and adopt it), or Abandoned when it was
     * not accepted. */
    void finish(const Attempt &a, const Network::SetupOutcome &replacement,
                Cycle now);

    /** Backoff before launch number @p attempt (1-based), jittered. */
    Cycle backoffFor(unsigned attempt);

    Network &net;
    RecoveryConfig cfg;
    Rng rng;
    std::unordered_map<ConnId, RecoverySpec> specs;
    std::unordered_map<ConnId, RecoveryStatus> results;
    std::vector<Attempt> active;
    std::uint64_t statFailures = 0;
    std::uint64_t statRetries = 0;
    std::uint64_t statRecovered = 0;
    std::uint64_t statAbandoned = 0;
};

} // namespace mmr

#endif // MMR_FAULT_RECOVERY_HH
