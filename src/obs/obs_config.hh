/**
 * @file
 * One-stop configuration + lifetime management for the observability
 * layer, shared by the experiment harness, the bench binaries and the
 * example front ends.
 *
 * ObsConfig is plain data filled from CLI flags (--trace=,
 * --stats-json=, --sample-every=, ...).  ObsSession owns the live
 * objects the config asks for — stats registry, sampler, flight
 * recorder — wires the sampler into a kernel, starts the recorder's
 * trace buffer, and writes every requested file in finish().  A
 * default-constructed ObsConfig leaves only the always-on
 * flight-recorder ring running: nothing else is allocated and no trace
 * buffer grows.
 */

#ifndef MMR_OBS_OBS_CONFIG_HH
#define MMR_OBS_OBS_CONFIG_HH

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"
#include "obs/flight_recorder.hh"
#include "obs/sampler.hh"
#include "obs/stats_registry.hh"

namespace mmr
{

class Cli;
class Kernel;

struct ObsConfig
{
    std::string tracePath;     ///< Chrome trace-event JSON output
    std::string statsJsonPath; ///< registry dump + sampler series
    std::string statsCsvPath;  ///< sampler series as CSV

    /** Sample the registry every N cycles; 0 = only if a stats file
     * needs the sampler, then every 1000. */
    Cycle samplePeriod = 0;

    /** Stat selection patterns for the sampler (empty = all). */
    std::vector<std::string> sampleStats;

    /** Trace category list ("flit,sched"); empty/"all" = everything. */
    std::string traceCats;

    Cycle traceFrom = 0;
    Cycle traceTo = std::numeric_limits<Cycle>::max();

    /** Attribute wall time to kernel components (slows the run). */
    bool profileComponents = false;

    /** Register per-VC occupancy gauges (256 VCs x 8 ports makes for
     * wide CSVs; off by default). */
    bool perVcStats = false;

    /**
     * End-of-run flight-recorder dump path.  The recorder itself is
     * always on (crash forensics matter most on the runs nobody
     * thought to instrument) and dumps to its default path on panic;
     * this adds an unconditional dump at finish() for inspection of
     * healthy runs.
     */
    std::string flightRecorderPath;

    /** Flight-recorder ring depth in events (rounded up to a power
     * of two). */
    std::size_t flightRecorderDepth = FlightRecorder::kDefaultCapacity;

    /** Categories the always-on ring keeps; defaults to the
     * forensic set (kForensicTraceCats).  "all" restores every
     * category. */
    std::string flightRecorderCats = traceCatNames(kForensicTraceCats);

    bool wantsTrace() const { return !tracePath.empty(); }
    bool wantsSampler() const
    {
        return samplePeriod > 0 || !statsJsonPath.empty() ||
               !statsCsvPath.empty();
    }
    bool enabled() const
    {
        return wantsTrace() || wantsSampler() || profileComponents;
    }
};

class ObsSession
{
  public:
    explicit ObsSession(const ObsConfig &cfg);
    ~ObsSession();

    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;

    const ObsConfig &config() const { return cfg; }

    /** Registry to populate before attach() (components register
     * their stats into it). Valid whenever the session is enabled. */
    StatsRegistry &registry() { return stats; }

    /**
     * Create the sampler the config asks for, add it to @p kernel
     * (call after every registerStats) and start the trace on the
     * thread's active recorder.  Also enables component profiling on
     * the kernel if requested.  No-op when the config is empty.
     */
    void attach(Kernel &kernel);

    /** The live sampler, or nullptr when sampling is off. */
    StatsSampler *sampler() { return sampl.get(); }

    /** The session's black box (always constructed; installed as the
     * thread's recorder unless an outer session already owns it). */
    FlightRecorder *flightRecorder() { return flight.get(); }

    /**
     * Hook writing a JSON value (the latency-histogram object) into
     * the --stats-json payload under the "histograms" key; unset
     * sessions emit null.  The harness registers one reading its
     * MetricsRecorder at finish() time.
     */
    void setHistogramDump(std::function<void(std::ostream &)> fn)
    {
        histDump = std::move(fn);
    }

    /**
     * Take a final sample (so the last partial period is covered) and
     * write every requested output file.  Idempotent.
     */
    void finish(Cycle now);

  private:
    ObsConfig cfg;
    StatsRegistry stats;
    std::unique_ptr<StatsSampler> sampl;
    std::unique_ptr<FlightRecorder> flight;
    FlightRecorder *traced = nullptr; ///< recorder running our trace
    std::function<void(std::ostream &)> histDump;
    bool ownsFlightActivation = false;
    bool attached = false;
    bool finished = false;
};

/**
 * Declare the standard observability flags (--trace=, --trace-cats=,
 * --trace-from/-to=, --stats-json=, --stats-csv=, --sample-every=,
 * --sample-stats=, --stats-per-vc, --profile) on a Cli, all
 * defaulting to "off".
 */
void addObsFlags(Cli &cli);

/** Build an ObsConfig from flags declared by addObsFlags. */
ObsConfig obsConfigFromCli(const Cli &cli);

/**
 * Derive a per-run output path from a shared flag value: inserts
 * "-<suffix>" before the extension ("out/trace.json" + "biased_2c-0.70"
 * -> "out/trace-biased_2c-0.70.json").  Used by sweep benches where
 * one --trace flag covers many runs.
 */
std::string obsPathWithSuffix(const std::string &path,
                              const std::string &suffix);

/**
 * @p cfg with every output path — trace, stats JSON, stats CSV and
 * flight-recorder dump — passed through obsPathWithSuffix: how a
 * sweep names each point's files (runExperiments refuses two points
 * that share one).
 */
ObsConfig obsConfigWithSuffix(ObsConfig cfg, const std::string &suffix);

} // namespace mmr

#endif // MMR_OBS_OBS_CONFIG_HH
