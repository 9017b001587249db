#include "sim/sweep.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

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

/** Insert ".point<N>" before the extension ("out/run.json" ->
 * "out/run.point3.json"; no extension just appends). */
std::string
pointSuffixed(const std::string &path, std::size_t index)
{
    if (path.empty())
        return path;
    const std::string suffix =
        ".point" + std::to_string(index);
    const std::size_t slash = path.find_last_of('/');
    const std::size_t dot = path.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + suffix;
    return path.substr(0, dot) + suffix + path.substr(dot);
}

/**
 * Sweep points sharing one --stats-json/--trace/... flag would all
 * write the same file, last writer winning (and racing under
 * --jobs=N); give every point its own ".point<N>" output instead.
 * Single-point "sweeps" keep the caller's exact path.
 */
ExperimentConfig
withPointOutputs(const ExperimentConfig &cfg, std::size_t index,
                 std::size_t points)
{
    if (points <= 1)
        return cfg;
    ExperimentConfig c = cfg;
    c.obs.tracePath = pointSuffixed(c.obs.tracePath, index);
    c.obs.statsJsonPath = pointSuffixed(c.obs.statsJsonPath, index);
    c.obs.statsCsvPath = pointSuffixed(c.obs.statsCsvPath, index);
    c.obs.flightRecorderPath =
        pointSuffixed(c.obs.flightRecorderPath, index);
    return c;
}

} // namespace

namespace
{

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

    if (jobs <= 1) {
        std::vector<ExperimentResult> results(cfgs.size());
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            results[i] = runSingleRouter(
                withPointOutputs(cfgs[i], i, cfgs.size()));
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
                slots[i].r = runSingleRouter(
                    withPointOutputs(cfgs[i], i, cfgs.size()));
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
