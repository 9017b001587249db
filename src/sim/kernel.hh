/**
 * @file
 * Cycle-driven simulation kernel.
 *
 * Everything in the router operates in lock-step flit cycles (§3.4):
 * during one flit cycle the switch transmits the flits chosen in the
 * previous cycle while schedulers concurrently compute the next
 * matching, then the switch reconfigures.  The kernel captures that as
 * a two-phase tick: evaluate() (combinational work that reads current
 * state) followed by advance() (state commit), run over all registered
 * components each cycle.  The two-phase split lets components observe
 * a consistent snapshot regardless of registration order.
 */

#ifndef MMR_SIM_KERNEL_HH
#define MMR_SIM_KERNEL_HH

#include <functional>
#include <string>
#include <vector>

#include "base/types.hh"

namespace mmr
{

class InvariantChecker;

/** Interface for anything ticked by the kernel. */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Phase 1: compute, reading this-cycle state. */
    virtual void evaluate(Cycle now) = 0;

    /** Phase 2: commit state for the next cycle. */
    virtual void advance(Cycle now) = 0;
};

class Kernel
{
  public:
    /** Withdraws the published simclock cycle (see step()). */
    ~Kernel();

    /** Register a component; not owned. Order is evaluation order. */
    void add(Clocked *c, std::string name = {});

    /** Run @p cycles flit cycles. */
    void run(Cycle cycles);

    /** Run a single flit cycle. */
    void step();

    Cycle now() const { return currentCycle; }

    /** The kernel holds no state to audit, so this registers nothing;
     * it stays only because benchmark/mmr_bench.cc still calls it. */
    void registerInvariants(InvariantChecker &) const {}

    std::size_t componentCount() const { return components.size(); }

    // ------------------------------------------------------------------
    // Self-profiling (observability layer)
    // ------------------------------------------------------------------

    /**
     * Attribute wall-clock time to each component's evaluate+advance
     * while stepping.  Off by default: profiling adds two clock reads
     * per component per phase, so enable it only when the attribution
     * is wanted (the cycles/sec summary does not need it).
     */
    void enableProfiling(bool on) { profiling = on; }
    bool profilingEnabled() const { return profiling; }

    /** Cycles stepped since construction (profiled or not). */
    Cycle cyclesRun() const { return currentCycle; }

    /** Component names in registration order ("" when unnamed). */
    std::vector<std::string> componentNames() const;

    /** Accumulated seconds per component (registration order); all
     * zero unless profiling was enabled while stepping. */
    const std::vector<double> &componentSeconds() const
    {
        return compSeconds;
    }

  private:
    void stepProfiled();

    struct Item
    {
        Clocked *component;
        std::string name;
    };

    std::vector<Item> components;
    std::vector<double> compSeconds;
    Cycle currentCycle = 0;
    bool profiling = false;
};

} // namespace mmr

#endif // MMR_SIM_KERNEL_HH
