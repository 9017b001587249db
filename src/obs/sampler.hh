/**
 * @file
 * Time-series sampler over the stats registry.
 *
 * A StatsSampler is a Clocked kernel component: every N cycles it
 * snapshots a selected set of registry statistics into a ring buffer,
 * answering questions the end-of-run aggregates cannot ("what was
 * port 3's VC occupancy when jitter spiked at cycle 40k?").  Register
 * it with the kernel *after* the components it watches so a sample
 * reflects that cycle's committed state.
 *
 * The ring buffer holds the most recent `capacity` samples; when a
 * run outgrows it the oldest rows are dropped (and counted), keeping
 * memory bounded on arbitrarily long runs.  dumpCsv()/dumpJson()
 * produce deterministic, bit-identical output for same-seed runs.
 */

#ifndef MMR_OBS_SAMPLER_HH
#define MMR_OBS_SAMPLER_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "base/types.hh"
#include "obs/stats_registry.hh"
#include "sim/kernel.hh"

namespace mmr
{

// mmr-lint: allow(clocked-invariants) pure observer: samples registry
// values into a ring buffer and holds no simulation state to audit.
class StatsSampler : public Clocked
{
  public:
    /**
     * @param reg registry to sample (must outlive the sampler)
     * @param period sample every this many cycles (>= 1)
     * @param patterns stat selection (see StatsRegistry::select);
     *        empty selects every registered statistic
     * @param capacity ring-buffer depth in samples
     */
    StatsSampler(const StatsRegistry &reg, Cycle period,
                 const std::vector<std::string> &patterns = {},
                 std::size_t capacity = 65536);

    // Clocked: sample after state commit.
    void evaluate(Cycle now) override { (void)now; }
    void advance(Cycle now) override;

    /** Take one sample immediately (also used by the period tick). */
    void sampleNow(Cycle now);

    /** Columns captured per sample, in output (sorted-name) order. */
    const std::vector<std::string> &columns() const { return colNames; }

    /** Samples currently retained (<= capacity). */
    std::size_t storedSamples() const { return rows.size(); }

    /** Samples taken over the whole run, including evicted ones. */
    std::size_t totalSamples() const { return taken; }

    /** Samples evicted by the ring buffer. */
    std::size_t droppedSamples() const { return dropped; }

    /** Cycle stamp of retained sample @p r (0 = oldest retained). */
    Cycle sampleCycle(std::size_t r) const;

    /** Value of column @p c in retained sample @p r. */
    double value(std::size_t r, std::size_t c) const;

    /**
     * CSV dump: header "cycle,<col>,...", one row per retained
     * sample, oldest first.
     */
    void dumpCsv(std::ostream &os) const;

    /**
     * JSON dump:
     * {"period": N, "columns": [...], "kinds": [...],
     *  "dropped_samples": D, "samples": [[cycle, v...], ...]}
     */
    void dumpJson(std::ostream &os) const;

  private:
    const StatsRegistry &registry;
    Cycle period;
    std::size_t cap;
    std::vector<std::size_t> selected; ///< registry entry indices
    std::vector<std::string> colNames;

    std::vector<Cycle> cycles; ///< parallel to rows
    std::vector<std::vector<double>> rows;
    std::size_t head = 0; ///< index of the oldest retained row
    std::size_t taken = 0;
    std::size_t dropped = 0;
};

} // namespace mmr

#endif // MMR_OBS_SAMPLER_HH
