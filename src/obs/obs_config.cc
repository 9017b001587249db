#include "obs/obs_config.hh"

#include <fstream>

#include "base/cli.hh"
#include "base/logging.hh"
#include "sim/kernel.hh"

namespace mmr
{

ObsSession::ObsSession(const ObsConfig &c) : cfg(c)
{
    // The flight recorder is always on — the runs that crash are the
    // runs nobody thought to instrument.  A nested session (a harness
    // run inside a front end that already activated one) records into
    // the outer black box instead of fighting over the thread slot.
    flight = std::make_unique<FlightRecorder>(cfg.flightRecorderDepth);
    flight->setCategoryMask(
        traceCatMaskFromString(cfg.flightRecorderCats));
    if (!cfg.flightRecorderPath.empty())
        flight->setDumpPath(cfg.flightRecorderPath);
    if (FlightRecorder::active() == nullptr) {
        flight->activate();
        ownsFlightActivation = true;
    }
}

ObsSession::~ObsSession()
{
    // Deliberately no auto-finish: writing files is an explicit act
    // (the caller knows the final cycle); the flight recorder
    // deactivates with its destructor.
}

void
ObsSession::attach(Kernel &kernel)
{
    mmr_assert(!attached, "observability session attached twice");
    attached = true;
    if (!cfg.enabled())
        return;

    if (cfg.wantsSampler()) {
        const Cycle period =
            cfg.samplePeriod > 0 ? cfg.samplePeriod : 1000;
        sampl = std::make_unique<StatsSampler>(stats, period,
                                               cfg.sampleStats);
        kernel.add(sampl.get(), "obs-sampler");
    }

    if (cfg.wantsTrace()) {
        // Our own recorder, or the outer one a nested session records
        // into.
        traced = FlightRecorder::active();
        traced->startTrace(traceCatMaskFromString(cfg.traceCats),
                           cfg.traceFrom, cfg.traceTo);
    }

    if (cfg.profileComponents)
        kernel.enableProfiling(true);
}

void
ObsSession::finish(Cycle now)
{
    if (finished)
        return;
    finished = true;

    if (ownsFlightActivation) {
        if (!cfg.flightRecorderPath.empty())
            flight->dumpTo(cfg.flightRecorderPath, "end_of_run");
        flight->deactivate();
    }

    if (!cfg.enabled())
        return;

    if (sampl != nullptr) {
        // Cover the tail: the last sample may predate the final cycle.
        if (sampl->totalSamples() == 0 ||
            sampl->sampleCycle(sampl->storedSamples() - 1) != now)
            sampl->sampleNow(now);
    }

    if (traced != nullptr) {
        traced->stopTrace();
        std::ofstream os(cfg.tracePath);
        if (!os)
            mmr_fatal("cannot open trace output '", cfg.tracePath, "'");
        traced->writeTraceJson(os);
    }

    if (!cfg.statsJsonPath.empty()) {
        std::ofstream os(cfg.statsJsonPath);
        if (!os)
            mmr_fatal("cannot open stats output '", cfg.statsJsonPath,
                      "'");
        os << "{\n\"final\": ";
        stats.dumpJson(os);
        os << ",\n\"histograms\": ";
        if (histDump)
            histDump(os);
        else
            os << "null";
        os << ",\n\"series\": ";
        if (sampl != nullptr)
            sampl->dumpJson(os);
        else
            os << "null\n";
        os << "}\n";
    }

    if (!cfg.statsCsvPath.empty()) {
        mmr_assert(sampl != nullptr, "stats CSV requires the sampler");
        std::ofstream os(cfg.statsCsvPath);
        if (!os)
            mmr_fatal("cannot open stats output '", cfg.statsCsvPath,
                      "'");
        sampl->dumpCsv(os);
    }
}

void
addObsFlags(Cli &cli)
{
    cli.flag("trace", "", "Chrome trace-event JSON output file");
    cli.flag("trace-cats", "",
             "trace categories (" + traceCatNames(kAllTraceCats) +
                 "; default all)");
    cli.flag("trace-from", "0", "first cycle to trace");
    cli.flag("trace-to", "0", "last cycle to trace (0 = unbounded)");
    cli.flag("stats-json", "", "stats registry + series JSON output");
    cli.flag("stats-csv", "", "sampled stats CSV output");
    cli.flag("sample-every", "0",
             "sample the stats registry every N cycles (0 = only when "
             "a stats output needs it)");
    cli.flag("sample-stats", "",
             "stat selection patterns for the sampler (prefix. or "
             "prefix*; default all)");
    cli.flag("stats-per-vc", "0",
             "register per-VC occupancy gauges (wide output)");
    cli.flag("profile", "0",
             "attribute wall time to kernel components");
    cli.flag("flight-recorder-dump", "",
             "also dump the crash flight recorder at end of run "
             "(crash dumps are always on)");
    cli.flag("flight-recorder-depth", "2048",
             "flight-recorder ring depth in events (power of two)");
    cli.flag("flight-recorder-cats", traceCatNames(kForensicTraceCats),
             "categories the crash recorder keeps ('all' adds the "
             "high-volume flit/credit streams)");
}

ObsConfig
obsConfigFromCli(const Cli &cli)
{
    ObsConfig c;
    c.tracePath = cli.str("trace");
    c.traceCats = cli.str("trace-cats");
    const std::int64_t from = cli.integer("trace-from");
    const std::int64_t to = cli.integer("trace-to");
    if (from < 0 || to < 0)
        mmr_fatal("--trace-from/--trace-to must be >= 0 (got ", from,
                  " and ", to, ")");
    if (to > 0 && to < from)
        mmr_fatal("--trace-to=", to, " is before --trace-from=", from);
    c.traceFrom = static_cast<Cycle>(from);
    if (to > 0)
        c.traceTo = static_cast<Cycle>(to);
    c.statsJsonPath = cli.str("stats-json");
    c.statsCsvPath = cli.str("stats-csv");
    c.samplePeriod = static_cast<Cycle>(cli.integer("sample-every"));
    c.sampleStats = cli.list("sample-stats");
    c.perVcStats = cli.boolean("stats-per-vc");
    c.profileComponents = cli.boolean("profile");
    c.flightRecorderPath = cli.str("flight-recorder-dump");
    const auto depth = cli.integer("flight-recorder-depth");
    if (depth > 0)
        c.flightRecorderDepth = static_cast<std::size_t>(depth);
    c.flightRecorderCats = cli.str("flight-recorder-cats");
    return c;
}

std::string
obsPathWithSuffix(const std::string &path, const std::string &suffix)
{
    if (path.empty() || suffix.empty())
        return path;
    const std::size_t slash = path.find_last_of('/');
    const std::size_t dot = path.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + "-" + suffix;
    return path.substr(0, dot) + "-" + suffix + path.substr(dot);
}

} // namespace mmr
