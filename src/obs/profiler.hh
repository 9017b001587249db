/**
 * @file
 * Simulator self-profiling: where does the wall clock go, and how
 * fast is the simulation?
 *
 * The kernel attributes wall time to each registered component when
 * profiling is enabled (Kernel::enableProfiling); this module turns
 * that raw attribution plus run totals into the summary every
 * ExperimentResult carries — cycles/second and events/second.
 *
 * Wall-clock numbers are inherently nondeterministic; they are kept
 * out of resultDigest() and out of every trace/stats file that the
 * determinism audit covers.
 */

#ifndef MMR_OBS_PROFILER_HH
#define MMR_OBS_PROFILER_HH

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "base/types.hh"

namespace mmr
{

class Kernel;

/** Throughput summary of one simulation run. */
struct SimProfile
{
    double wallSeconds = 0.0;   ///< measured around the run loop
    Cycle cycles = 0;           ///< simulated flit cycles
    std::uint64_t events = 0;   ///< simulation events (see collect)

    /** Per-component seconds, kernel registration order; filled only
     * when Kernel::enableProfiling(true) was set for the run. */
    std::vector<std::pair<std::string, double>> componentSeconds;

    /** Shortest wall time a rate is computed over.  A run can finish
     * inside one clock tick (wallSeconds == 0, or a denormal); naive
     * division then reports 0 or inf cycles/s, and either poisons the
     * perf-baseline comparison.  Clamping the denominator keeps the
     * rate finite; zero work still reports an honest 0. */
    static constexpr double kMinWallSeconds = 1e-9;

    double cyclesPerSec() const
    {
        if (cycles == 0)
            return 0.0;
        return static_cast<double>(cycles) /
               std::max(wallSeconds, kMinWallSeconds);
    }

    double eventsPerSec() const
    {
        if (events == 0)
            return 0.0;
        return static_cast<double>(events) /
               std::max(wallSeconds, kMinWallSeconds);
    }
};

/**
 * Assemble a SimProfile from a finished kernel.
 *
 * @param wall_seconds wall time measured around the caller's run loop
 * @param events what "events/sec" counts for this run; the harness
 *        passes flits injected + flits forwarded
 */
SimProfile collectProfile(const Kernel &kernel, double wall_seconds,
                          std::uint64_t events);

/** Machine-readable form of the summary (one JSON object). */
void writeProfileJson(std::ostream &os, const SimProfile &p);

/** Human-readable one-block summary for bench/example stderr. */
void printProfile(std::ostream &os, const SimProfile &p);

} // namespace mmr

#endif // MMR_OBS_PROFILER_HH
