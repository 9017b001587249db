/**
 * @file
 * The setup-path churn point shared by the churn property sweep and
 * the serial-vs-sharded checks: a pure session population on a 4x4
 * mesh (no static streams), so every connection in the run goes
 * through the timed setup and teardown path, optionally composed with
 * link faults and probe loss.
 */

#ifndef MMR_TESTS_WORKLOAD_SETUP_PATH_HH
#define MMR_TESTS_WORKLOAD_SETUP_PATH_HH

#include <cstdint>

#include "harness/network_experiment.hh"

namespace mmr
{

/**
 * @p arrivals_per_1k sessions per 1000 cycles, mean hold 900 cycles,
 * a 1024-session pool, 500 warm-up + @p measure + 4000 drain cycles;
 * @p faulted adds link failures at 0.4 per link per 10k cycles
 * (repair 1200) and 2% probe loss.
 */
inline NetworkExperimentConfig
setupPathConfig(std::uint64_t seed, double arrivals_per_1k, Cycle measure,
                bool faulted)
{
    NetworkExperimentConfig c;
    c.topologySpec = "mesh:4x4";
    c.seed = seed;
    c.net.router.vcsPerPort = 32;
    c.net.router.candidates = 8;
    c.cbrStreamsPerHost = 0;
    c.beFlowsPerHost = 0;
    c.warmupCycles = 500;
    c.measureCycles = measure;
    // Links downed near the end of the measurement stay down ~1200
    // cycles into the drain; teardowns must still land before it ends.
    c.drainCycles = 4000;
    if (faulted)
        c.faults = parseFaultModel("fail=0.4,repair=1200,drop=0.02");
    c.churn.enabled = true;
    c.churn.maxLiveSessions = 1024;
    c.churn.workload.arrivalsPer1k = arrivals_per_1k;
    c.churn.workload.holdingMeanCycles = 900;
    return c;
}

} // namespace mmr

#endif // MMR_TESTS_WORKLOAD_SETUP_PATH_HH
