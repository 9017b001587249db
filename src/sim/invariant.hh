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
 * Checking is controlled at two levels: the CMake option
 * MMR_INVARIANTS selects the compile-time default, and
 * invariant::setEnabled() / the MMR_INVARIANTS environment variable
 * (0/1) override it at runtime.  Individual invariants may declare a
 * period so expensive sweeps (e.g. over all 2048 VCs of an 8x256
 * router) run on a stride instead of every cycle.
 */

#ifndef MMR_SIM_INVARIANT_HH
#define MMR_SIM_INVARIANT_HH

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
 */
// mmr-lint: allow(clocked-invariants) the auditor itself: it runs the
// registered checks and has no invariants of its own to register.
class InvariantChecker : public Clocked
{
  public:
    using CheckFn = std::function<void(Cycle)>;

    /**
     * Register a named invariant.
     *
     * @param name unique identifier, also used in violation messages
     * @param fn predicate; panics on violation
     * @param period audit every @p period cycles (>= 1)
     */
    void add(std::string name, CheckFn fn, unsigned period = 1);

    /** Number of registered invariants. */
    std::size_t size() const { return entries.size(); }

    bool has(const std::string &name) const;

    /** Registered invariant names, in registration order. */
    std::vector<std::string> names() const;

    /** Run one invariant by name regardless of period/enable state. */
    void run(const std::string &name, Cycle now) const;

    /** Run every invariant regardless of period (still honors the
     * global enable so production runs can switch auditing off). */
    void checkAll(Cycle now) const;

    /** Total individual checks executed so far. */
    std::uint64_t checksRun() const { return ran; }

    // Clocked: audit after state commit, honoring per-entry periods.
    void evaluate(Cycle now) override { (void)now; }
    void advance(Cycle now) override;

  private:
    struct Entry
    {
        std::string name;
        CheckFn fn;
        unsigned period;
    };

    std::vector<Entry> entries;
    /** Indices of the period-1 entries, in registration order: the
     * whole audit on a cycle where no stride is due. */
    std::vector<std::size_t> everyCycle;
    /** The distinct periods > 1, tested once per cycle each. */
    std::vector<unsigned> strides;
    mutable std::uint64_t ran = 0;
};

} // namespace mmr

#endif // MMR_SIM_INVARIANT_HH
