/**
 * @file
 * Runtime invariant checking framework.
 *
 * The MMR's guarantees rest on conservation laws the simulator must
 * never silently violate: credit-based flow control "guarantees flits
 * are never dropped" (§3.1, §4.2) and admission control keeps per-link
 * allocated bandwidth within the round (§4.2).  This module turns
 * those properties into machine-checked statements: an
 * InvariantChecker holds a registry of named predicates and audits
 * them at the end of every simulated cycle (it is a Clocked component,
 * registered after the units it watches so it sees committed state).
 * A violated invariant reports through mmr_panic with full context so
 * a debugger or death test can capture the state.
 *
 * A sharded Network runs the audit in lanes, one per shard (see
 * InvariantChecker).  Lanes change only where a check runs: the checks
 * counted and the first violation's report (text, file:line,
 * flight-recorder dump) are those of the one-lane audit.
 *
 * Checking is controlled at two levels: the CMake option
 * MMR_INVARIANTS selects the compile-time default, and
 * invariant::setEnabled() / the MMR_INVARIANTS environment variable
 * (0/1) override it at runtime.  Individual invariants may declare a
 * period so expensive sweeps (e.g. over all 2048 VCs of an 8x256
 * router) run on a stride instead of every cycle.
 */

#ifndef MMR_SIM_INVARIANT_HH
#define MMR_SIM_INVARIANT_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "sim/kernel.hh"

namespace mmr
{

namespace invariant
{

/** Whether checkers compiled with default-on support (MMR_INVARIANTS). */
bool compiledDefault();

/**
 * Whether invariant auditing is currently active.  Resolution order:
 * setEnabled() override if called, else the MMR_INVARIANTS environment
 * variable (0/1) if set, else the compile-time default.
 */
bool enabled();

/** Runtime override; wins over the environment and compile default. */
void setEnabled(bool on);

/** Drop any runtime override, returning to env/compile resolution. */
void clearOverride();

} // namespace invariant

/**
 * Report an invariant violation with the standard message shape
 * ("invariant 'name' violated: ...") so death tests and log scrapers
 * can match on the invariant name.  A macro so the panic carries the
 * call site's file/line.
 */
#define mmr_invariant_violated(name, ...) \
    mmr_panic("invariant '", name, "' violated: ", __VA_ARGS__)

/**
 * Registry of named invariant predicates, audited once per cycle.
 *
 * Check functions receive the current cycle and must either return
 * normally (invariant holds) or panic via mmr_invariant_violated.
 *
 * Every entry sits in a lane (default 0).  A checker with no runner
 * has one lane and runs it inline on the caller.  A checker given a
 * runner (setLanes; the sharded Network installs one) runs all lanes
 * at once on every cycle with a due entry: lane l runs its due
 * entries in registration order, and a panic inside a lane is a trip
 * (detail::PanicsTrip), not a report.  When any lane tripped, the
 * coordinator re-runs that cycle's due entries serially, in
 * registration order, with panics live: the first violation panics
 * with the serial text, exactly as a one-lane run would.  The checks
 * counted (checksRun) do not depend on the lane count either.
 */
// mmr-lint: allow(clocked-invariants) the auditor itself: it runs the
// registered checks and has no invariants of its own to register.
class InvariantChecker : public Clocked
{
  public:
    using CheckFn = std::function<void(Cycle)>;

    /** One lane's body: fn(lane) runs lane's due entries. */
    using LaneFn = std::function<void(unsigned)>;

    /**
     * Runs one audit cycle's lanes: must call fn(l) exactly once for
     * every l in [0, lanes()), lane 0 on the calling thread, and
     * return only once every call has returned.  The entries of
     * different lanes must touch disjoint mutable state.
     */
    using LaneRunner = std::function<void(Cycle now, const LaneFn &fn)>;

    /**
     * Register a named invariant.
     *
     * @param name unique identifier, also used in violation messages
     * @param fn predicate; panics on violation
     * @param period audit every @p period cycles (>= 1)
     * @param lane the lane that runs it (< lanes())
     */
    void add(std::string name, CheckFn fn, unsigned period = 1,
             unsigned lane = 0);

    /**
     * Audit in @p count lanes through @p runner from now on.  Call it
     * before adding any entry to a lane above 0, at most once.  The
     * runner's owner must outlive this checker's last advance().
     */
    void setLanes(unsigned count, LaneRunner runner);

    /** Number of lanes (1 until setLanes). */
    unsigned lanes() const { return static_cast<unsigned>(laneSet.size()); }

    /** Number of registered invariants. */
    std::size_t size() const { return entries.size(); }

    bool has(const std::string &name) const;

    /** Registered invariant names, in registration order. */
    std::vector<std::string> names() const;

    /** Run one invariant by name regardless of period/enable state,
     * inline on the caller. */
    void run(const std::string &name, Cycle now) const;

    /** Run every invariant regardless of period, inline on the caller
     * (still honors the global enable so production runs can switch
     * auditing off). */
    void checkAll(Cycle now) const;

    /** Total individual checks executed so far, over every lane. */
    std::uint64_t checksRun() const;

    // Clocked: audit after state commit, honoring per-entry periods.
    void evaluate(Cycle now) override { (void)now; }
    MMR_HOT_PATH void advance(Cycle now) override;

  private:
    struct Entry
    {
        std::string name;
        CheckFn fn;
        unsigned period;
    };

    /** One lane's entries and counters, on its own cache line: lanes
     * count their checks concurrently. */
    struct alignas(64) Lane
    {
        /** Its period-1 entries: the whole lane on a cycle where no
         * stride is due. */
        std::vector<std::size_t> everyCycle;
        /** All its entries, in registration order. */
        std::vector<std::size_t> all;
        std::uint64_t ran = 0;
        bool tripped = false;
    };

    /** Run @p lane's entries due at auditCycle, in registration
     * order. */
    void runLane(Lane &lane);

    /** The runner's lane body: runLane with panics as trips. */
    MMR_HOT_PATH void runTripping(unsigned l);

    /** After a trip: re-run the cycle's due entries in registration
     * order with panics live, and panic naming the lane if none
     * fails. */
    [[noreturn]] void replaySerially(Cycle now);

    std::vector<Entry> entries;
    std::vector<Lane> laneSet = std::vector<Lane>(1);
    /** The distinct periods > 1, tested once per cycle each. */
    std::vector<unsigned> strides;
    /** Whether any entry has period 1. */
    bool anyEveryCycle = false;

    LaneRunner runner;
    LaneFn laneBody; ///< runTripping, bound once
    /** The cycle being audited and whether a stride is due at it:
     * written by advance() before the runner publishes the phase. */
    Cycle auditCycle = 0;
    bool auditSweep = false;
    std::atomic<bool> anyTripped{false};

    /** Checks run by run() and checkAll(). */
    mutable std::uint64_t ranInline = 0;
};

} // namespace mmr

#endif // MMR_SIM_INVARIANT_HH
