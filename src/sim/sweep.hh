/**
 * @file
 * Parallel sweep runner: execute independent experiment points on a
 * pool of worker threads.
 *
 * Figure sweeps (§5) are embarrassingly parallel — every point owns
 * its Rng, StatsRegistry, MetricsRecorder and router, and the only
 * process-wide hooks on the hot path (simclock, the active
 * FlightRecorder) are thread-local — so the runner needs no locking
 * beyond handing out point indices and serializing the completion
 * callback.  Results are returned in input order and each point's
 * resultDigest is bit-identical to a serial run: parallelism changes
 * only which OS thread executes a point, never the work the point
 * does.
 */

#ifndef MMR_SIM_SWEEP_HH
#define MMR_SIM_SWEEP_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "harness/single_router.hh"

namespace mmr
{

/**
 * Worker count used when the caller does not specify one: the
 * hardware concurrency, at least 1.
 */
unsigned defaultJobs();

/**
 * Run every configuration and return the results in input order.
 *
 * @param cfgs one entry per experiment point
 * @param jobs worker threads; <= 1 runs inline on the caller's
 *        thread, values above cfgs.size() are clamped
 * @param onDone optional progress hook, invoked once per finished
 *        point with (index, result); calls are serialized, but may
 *        arrive out of index order
 *
 * Fatal before any point runs when a point's configuration is invalid
 * (ExperimentConfig::validate), and, naming the path, when two points
 * share a non-empty output path (trace, stats or flight-recorder
 * dump): the runner never renames a point's outputs, so callers give
 * each point its own (obsConfigWithSuffix).  The first exception
 * thrown by an experiment is rethrown on the caller's thread after
 * the pool drains.
 */
std::vector<ExperimentResult> runExperiments(
    const std::vector<ExperimentConfig> &cfgs, unsigned jobs,
    const std::function<void(std::size_t, const ExperimentResult &)>
        &onDone = {});

} // namespace mmr

#endif // MMR_SIM_SWEEP_HH
