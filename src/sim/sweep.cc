#include "sim/sweep.hh"

#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "base/logging.hh"

namespace mmr
{

unsigned
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

namespace
{

/**
 * Two points of one sweep writing one file would race on it (parallel)
 * or overwrite each other (serial).  Callers name each point's outputs
 * (obsConfigWithSuffix); a sweep in which two points share a path is
 * refused before any point runs.
 */
void
requireDistinctOutputs(const std::vector<ExperimentConfig> &cfgs)
{
    std::map<std::string, std::size_t> writer;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const ObsConfig &o = cfgs[i].obs;
        for (const std::string *path :
             {&o.tracePath, &o.statsJsonPath, &o.statsCsvPath,
              &o.flightRecorderPath}) {
            if (path->empty())
                continue;
            const auto [it, fresh] = writer.emplace(*path, i);
            if (!fresh && it->second != i)
                mmr_fatal("sweep points ", it->second, " and ", i,
                          " both write '", *path,
                          "': give each point its own output path");
        }
    }
}

/**
 * Per-point result slot, cache-line padded: neighboring points are
 * written by different worker threads, and without the alignment two
 * adjacent results could share a line (false sharing — every store by
 * one worker invalidating the other's cache).  Results are copied out
 * to a plain vector once the pool drains.
 */
struct alignas(64) PaddedResult
{
    ExperimentResult r;
};

} // namespace

std::vector<ExperimentResult>
runExperiments(
    const std::vector<ExperimentConfig> &cfgs, unsigned jobs,
    const std::function<void(std::size_t, const ExperimentResult &)>
        &onDone)
{
    if (cfgs.empty())
        return {};
    // Refuse a bad point before any point runs.
    for (const ExperimentConfig &c : cfgs)
        c.validate();
    requireDistinctOutputs(cfgs);

    if (jobs <= 1) {
        std::vector<ExperimentResult> results(cfgs.size());
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            results[i] = runSingleRouter(cfgs[i]);
            if (onDone)
                onDone(i, results[i]);
        }
        return results;
    }

    jobs = std::min<unsigned>(jobs,
                              static_cast<unsigned>(cfgs.size()));

    std::vector<PaddedResult> slots(cfgs.size());
    std::atomic<std::size_t> next{0};
    std::mutex doneMutex;
    std::exception_ptr firstError;

    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= cfgs.size())
                return;
            try {
                slots[i].r = runSingleRouter(cfgs[i]);
            } catch (...) {
                std::lock_guard<std::mutex> lock(doneMutex);
                if (!firstError)
                    firstError = std::current_exception();
                continue;
            }
            if (onDone) {
                std::lock_guard<std::mutex> lock(doneMutex);
                onDone(i, slots[i].r);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();

    if (firstError)
        std::rethrow_exception(firstError);

    std::vector<ExperimentResult> results;
    results.reserve(cfgs.size());
    for (PaddedResult &slot : slots)
        results.push_back(std::move(slot.r));
    return results;
}

} // namespace mmr
