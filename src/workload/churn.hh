/**
 * @file
 * Session-churn engine: a population of sessions arriving, holding
 * and departing over the live network.
 *
 * The paper evaluates the MMR under steady sources; its admission-
 * control story (EPB probes, per-class QoS) only matters under
 * *populations*.  The ChurnEngine turns the SessionGenerator's draws
 * into real connection lifecycles: each arrival launches a timed EPB
 * setup (openCbrTimed / openVbrTimed), an admitted session injects
 * CBR/VBR flits through its Network::Handle for its holding time, and
 * departure tears the connection down through the normal close path.
 * Acceptance ratio, measured setup-latency percentiles and the
 * QoS-violation rate fall out as the figures of merit.
 *
 * Scale discipline — millions of cumulative sessions in one process:
 *
 *  - per-session state is one pooled Session record (<= 64 bytes,
 *    enforced by static_assert), recycled through an intrusive free
 *    list the moment the session's connection is fully gone;
 *  - all bookkeeping lists (pending setups, active scan, departure
 *    timing wheel, reaper) are intrusive u32 chains through the pool —
 *    the engine performs no steady-state heap allocation;
 *  - completed sessions release their MetricsRecorder entry
 *    (releaseConnection folds the stats into retired aggregates), and
 *    each setup outcome is taken on the tick after it lands
 *    (takeTimedResult frees the probe slot that held it), so neither
 *    the recorder nor the probe pool grows with cumulative session
 *    count.
 *
 * Bookkeeping is audited by the named invariant
 * "workload.session-ledger", a conservation law over the whole
 * population:
 *
 *     arrived  == pending + admitted + rejected
 *     admitted == active  + completed + abandoned
 *     pool-in-use == pending + active + zombie + reaping
 *
 * where "abandoned" counts sessions whose connection a link fault
 * tore down mid-hold (the fault x churn composition), and "zombie" /
 * "reaping" are the in-between teardown states.
 *
 * Determinism: every random draw lives in the SessionGenerator's
 * seed-derived sub-RNGs, and the engine runs coordinator-serial
 * between network ticks (like the host interfaces), so churn results
 * are digest-identical serial vs --shards=N.
 */

#ifndef MMR_WORKLOAD_CHURN_HH
#define MMR_WORKLOAD_CHURN_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "network/network.hh"
#include "obs/histogram.hh"
#include "sim/invariant.hh"
#include "workload/generator.hh"

namespace mmr
{

/** Engine half of the churn configuration (the generator half lives
 * in SessionWorkloadSpec). */
struct ChurnConfig
{
    bool enabled = false;

    SessionWorkloadSpec workload;

    /** Hard cap on concurrently live sessions (pending + active +
     * draining); arrivals beyond it are refused locally and counted
     * rejectedBusy.  Bounds pool memory at maxLiveSessions x 64 B. */
    std::uint32_t maxLiveSessions = 4096;

    /** Probe setup timeout armed if none is configured yet (0 keeps
     * whatever the network/recovery layer already set). */
    Cycle setupTimeoutCycles = 512;
};

/** Conservation counters of the session population (see file header
 * for the invariant the checker enforces over them). */
struct SessionLedger
{
    std::uint64_t arrived = 0;   ///< generator arrivals offered
    std::uint64_t admitted = 0;  ///< setups accepted by the network
    std::uint64_t rejected = 0;  ///< refused (admission, timeout, busy)
    std::uint64_t rejectedBusy = 0; ///< subset of rejected: pool full
    std::uint64_t completed = 0; ///< held to term, closed cleanly
    std::uint64_t abandoned = 0; ///< torn down mid-hold by a fault

    /** Sessions decided by the network's admission control. */
    std::uint64_t decided() const { return admitted + rejected; }

    /** Fraction of decided sessions that were admitted. */
    double
    acceptanceRatio() const
    {
        return decided() ? static_cast<double>(admitted) /
                               static_cast<double>(decided())
                         : 0.0;
    }
};

/**
 * Drives session setup/teardown and per-session flit injection over
 * a Network.  Not Clocked: the harness ticks it between host ticks
 * and the network step, exactly like the NetworkInterface hosts, so
 * all its network calls run coordinator-serial.
 */
class ChurnEngine
{
  public:
    /** Null link of the intrusive session chains. */
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** Departure timing-wheel size (power of two; longer holds ride
     * the wheel for multiple revolutions). */
    static constexpr std::uint32_t kWheelSlots = 4096;

    /**
     * @param horizon cycles of arrival schedule to compile (warmup +
     *                measurement; arrivals stop at beginDrain anyway)
     * @param seed    root seed; every draw stream derives from it
     */
    ChurnEngine(Network &net, const ChurnConfig &cfg, Cycle horizon,
                std::uint64_t seed);

    /** One engine step: reap finished teardowns, poll pending setups,
     * admit this cycle's arrivals, pop due departures, inject flits
     * for every active session.  Call once per cycle, before the
     * network's step. */
    void tick(Cycle now);

    /** Enter the drain phase: shut off arrivals, close every active
     * session now; pending setups resolve (or time out) under
     * continued tick()s. */
    void beginDrain(Cycle now);

    /** Register the "workload.session-ledger" invariant. */
    void registerInvariants(InvariantChecker &chk, unsigned period = 64);

    /** Run the ledger audit directly (tests). */
    void auditLedger(Cycle now) const;

    const SessionLedger &ledger() const { return led; }

    /** Measured probe+ack setup latency of admitted sessions. */
    const LatencyHistogram &setupLatency() const { return setupHist; }

    /** Sessions currently occupying pool slots. */
    std::uint32_t liveSessions() const { return used; }
    std::uint32_t peakLiveSessions() const { return peak; }

    /** True once every session fully unwound (drain complete). */
    bool drained() const { return used == 0; }

    /** Resident pool bytes backing session state. */
    std::uint64_t
    poolBytes() const
    {
        return slots.capacity() * sizeof(Session);
    }

    /** Per-live-session record size (the <= 64 B contract). */
    static constexpr std::uint32_t liveSessionBytes();

    std::uint64_t flitsInjected() const { return statInjected; }
    std::uint64_t flitsDroppedBackpressure() const { return statDropped; }

  private:
    /** One pooled session record.  `next` threads whichever intrusive
     * chain the state implies (pending list, wheel slot, reaper);
     * `activeNext` threads the injection-scan list, used only while
     * Active.  While Pending, departAt temporarily holds the drawn
     * holding time (rebased to an absolute cycle at admission). */
    struct Session
    {
        /** While Pending, the timed-setup token; once admitted, the
         * connection's handle (see handle()), which injection, close
         * and the reaper read.  The token dies the moment its outcome
         * is taken, so the handle reuses its bytes and the record
         * stays at 56 of the budgeted 64 bytes. */
        std::uint64_t token = 0;
        Cycle departAt = 0;
        ConnId conn = kInvalidConn; ///< label: the recorder key
        std::uint32_t next = kNil;
        std::uint32_t activeNext = kNil;
        NodeId src = 0;
        NodeId dst = 0;
        float rateFlitsPerCycle = 0.0f;
        float credit = 0.0f;       ///< fractional-rate accumulator
        std::uint32_t seq = 0;
        std::uint8_t state = 0;    ///< State enum
        bool vbr = false;

        Network::Handle
        handle() const
        {
            return std::bit_cast<Network::Handle>(token);
        }
    };
    static_assert(sizeof(Session) <= 64,
                  "session records must stay within the 64-byte "
                  "per-live-session budget");

    enum State : std::uint8_t
    {
        Free = 0,
        Pending, ///< timed setup in flight
        Active,  ///< admitted; injecting until departAt
        Zombie,  ///< fault killed the connection; waits out the wheel
        Reaping  ///< closed; waiting for the network to finish teardown
    };

    std::uint32_t acquireSlot();
    void freeSlot(std::uint32_t idx);
    void wheelInsert(std::uint32_t idx);

    void reap(Cycle now);
    void pollSetups(Cycle now);
    void admitArrivals(Cycle now);
    void departures(Cycle now);
    void injectActive(Cycle now);

    /** Close (or abandon) one admitted session and queue it for the
     * reaper. */
    void retire(std::uint32_t idx, bool completedHold);

    Network &net;
    ChurnConfig cfg;
    SessionGenerator gen;
    double linkRateBps;
    bool draining = false;

    std::vector<Session> slots;
    std::uint32_t freeHead = kNil;
    std::uint32_t pendHead = kNil;   ///< Pending chain (via next)
    std::uint32_t activeHead = kNil; ///< Active chain (via activeNext)
    std::uint32_t reapHead = kNil;   ///< Reaping chain (via next)
    std::vector<std::uint32_t> wheel; ///< kWheelSlots chain heads

    SessionLedger led;
    LatencyHistogram setupHist;
    std::uint32_t used = 0;
    std::uint32_t peak = 0;
    std::uint64_t statInjected = 0;
    std::uint64_t statDropped = 0;
};

constexpr std::uint32_t
ChurnEngine::liveSessionBytes()
{
    return static_cast<std::uint32_t>(sizeof(Session));
}

} // namespace mmr

#endif // MMR_WORKLOAD_CHURN_HH
