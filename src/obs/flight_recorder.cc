#include "obs/flight_recorder.hh"

#include <bit>
#include <fstream>
#include <ostream>

#include "base/logging.hh"

namespace mmr
{

namespace
{

/** mmr_panic hook: dump the panicking thread's black box before the
 * abort.  Installed once per process; reads only thread-local state,
 * so concurrent sweep workers dump their own rings. */
void
panicDumpHook(const char *)
{
    FlightRecorder::dumpActive("panic");
}

/**
 * The one Chrome trace-event writer behind crash dumps and --trace
 * files: @p n events @p at(0) .. @p at(n - 1), with the reason and
 * event counts in otherData (plus the drop count when @p dropped is
 * set).  Touches nothing but its arguments and @p os, so it is safe
 * from the panic hook.
 */
template <typename EventAt>
void
writeChrome(std::ostream &os, const char *reason, std::uint64_t recorded,
            std::uint64_t n, const std::uint64_t *dropped, EventAt at)
{
    os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{"
       << "\"reason\":\"" << (reason ? reason : "unknown")
       << "\",\"recorded\":" << recorded << ",\"retained\":" << n;
    if (dropped != nullptr)
        os << ",\"dropped_events\":" << *dropped;
    os << "},\"traceEvents\":[";
    for (std::uint64_t i = 0; i < n; ++i) {
        const FlightRecorder::Event &e = at(i);
        if (i != 0)
            os << ",\n";
        os << "{\"name\":\"" << e.name << "\",\"cat\":\""
           << to_string(e.cat) << "\",\"ph\":\"" << e.phase
           << "\",\"ts\":" << e.cycle << ",\"pid\":1,\"tid\":" << e.lane;
        if (e.phase == 'C') {
            os << ",\"args\":{\"value\":" << e.a0 << "}}";
            continue;
        }
        os << ",\"s\":\"t\",\"args\":{";
        bool sep = false;
        if (e.conn != kInvalidConn) {
            os << "\"conn\":" << e.conn;
            sep = true;
        }
        if (e.a0 >= 0) {
            os << (sep ? "," : "") << "\"a0\":" << e.a0;
            sep = true;
        }
        if (e.a1 >= 0)
            os << (sep ? "," : "") << "\"a1\":" << e.a1;
        os << "}}";
    }
    os << "]}\n";
}

} // namespace

const char *
to_string(TraceCat c)
{
    switch (c) {
      case TraceCat::Flit:
        return "flit";
      case TraceCat::Sched:
        return "sched";
      case TraceCat::Admission:
        return "admission";
      case TraceCat::Credit:
        return "credit";
      case TraceCat::Setup:
        return "setup";
      case TraceCat::Fault:
        return "fault";
      default:
        return "?";
    }
}

std::uint32_t
traceCatMaskFromString(const std::string &spec)
{
    if (spec.empty() || spec == "all")
        return kAllTraceCats;
    std::uint32_t mask = 0;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string part = spec.substr(start, comma - start);
        start = comma + 1;
        if (part.empty())
            continue;
        bool known = false;
        for (unsigned c = 0;
             c < static_cast<unsigned>(TraceCat::NumCats); ++c) {
            if (part == to_string(static_cast<TraceCat>(c))) {
                mask |= 1u << c;
                known = true;
                break;
            }
        }
        if (!known)
            mmr_fatal("unknown trace category '", part,
                      "' (want a list of ", traceCatNames(kAllTraceCats),
                      ", or all)");
    }
    return mask;
}

std::string
traceCatNames(std::uint32_t mask)
{
    std::string names;
    for (unsigned c = 0; c < static_cast<unsigned>(TraceCat::NumCats);
         ++c) {
        if ((mask & (1u << c)) == 0)
            continue;
        if (!names.empty())
            names += ',';
        names += to_string(static_cast<TraceCat>(c));
    }
    return names;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
{
    if (capacity < 2)
        capacity = 2;
    ring.resize(std::bit_ceil(capacity) / 2);
    mask = ring.size() * 2 - 1;
}

FlightRecorder::~FlightRecorder()
{
    deactivate();
}

void
FlightRecorder::activate()
{
    mmr_assert(current == nullptr || current == this,
               "another flight recorder is already active "
               "on this thread");
    current = this;
    // The hook is process-global and concurrent sweep workers each
    // activate a recorder: install it exactly once.
    [[maybe_unused]] static const bool hooked =
        (log::setPanicHook(&panicDumpHook), true);
}

void
FlightRecorder::deactivate()
{
    if (current == this)
        current = nullptr;
}

std::size_t
FlightRecorder::stored() const
{
    return head < capacity() ? static_cast<std::size_t>(head)
                             : capacity();
}

const FlightRecorder::Event &
FlightRecorder::oldest() const
{
    mmr_assert(head > 0, "flight recorder is empty");
    const std::uint64_t first =
        head <= capacity() ? 0 : head - capacity();
    return eventAt(first);
}

void
FlightRecorder::startTrace(std::uint32_t cats, Cycle from, Cycle to)
{
    mmr_assert(traceCats == 0, "a trace is already running");
    mmr_assert(from <= to, "trace cycle range is inverted");
    traceBuf.clear();
    dropped = 0;
    traceFrom = from;
    traceTo = to;
    traceCats = cats;
}

// mmr-lint: allow(hot-path-alloc) opt-in: the trace buffer grows only
// while a trace runs (--trace), up to kTraceCapacity events.
void
FlightRecorder::trace(const Event &e)
{
    if (e.cycle < traceFrom || e.cycle > traceTo)
        return;
    if (traceBuf.size() >= kTraceCapacity) {
        ++dropped;
        return;
    }
    traceBuf.push_back(e);
}

void
FlightRecorder::writeChromeJson(std::ostream &os,
                                const char *reason) const
{
    const std::uint64_t first = head - stored();
    writeChrome(os, reason, head, stored(), nullptr,
                [&](std::uint64_t i) -> const Event & {
                    return eventAt(first + i);
                });
}

void
FlightRecorder::writeTraceJson(std::ostream &os) const
{
    writeChrome(os, "trace", traceBuf.size() + dropped, traceBuf.size(),
                &dropped, [&](std::uint64_t i) -> const Event & {
                    return traceBuf[i];
                });
}

bool
FlightRecorder::dumpTo(const std::string &path,
                       const char *reason) const
{
    std::ofstream os(path);
    if (!os) {
        mmr_warn("flight recorder: cannot write '", path, "'");
        return false;
    }
    writeChromeJson(os, reason);
    return os.good();
}

bool
FlightRecorder::dumpActive(const char *reason)
{
    FlightRecorder *fr = current;
    if (fr == nullptr)
        return false;
    return fr->dumpTo(fr->dumpFile, reason);
}

} // namespace mmr
