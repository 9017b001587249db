/**
 * @file
 * Error and status reporting in the gem5 tradition.
 *
 * panic()  — an internal invariant was violated (a bug in this library);
 *            aborts so a debugger/core dump can capture the state
 *            (under a detail::PanicsTrip guard it throws instead).
 * fatal()  — the user asked for something impossible (bad configuration);
 *            exits with an error code.
 * warn()/inform()/debug() — leveled status output routed through a
 *            replaceable sink.
 *
 * Messages carry a severity (LogLevel) and are filtered against
 * log::level() before formatting reaches the sink; the threshold
 * defaults to Info and can be overridden with the MMR_LOG_LEVEL
 * environment variable (debug | info | warn | silent).  When a
 * simulation kernel is running, the default sink timestamps each line
 * with the current flit cycle ("[cycle 1234] warn: ...") so log output
 * can be correlated with trace events.
 */

#ifndef MMR_BASE_LOGGING_HH
#define MMR_BASE_LOGGING_HH

#include <functional>
#include <sstream>
#include <string>

namespace mmr
{

/** Message severities, in increasing order of importance. */
enum class LogLevel
{
    Debug,  ///< high-volume diagnostics (off by default)
    Info,   ///< inform(): normal status output
    Warn,   ///< warn(): suspicious but recoverable
    Silent  ///< threshold-only value: suppress everything
};

const char *to_string(LogLevel l);

namespace log
{

/** Receives every message that passes the level filter. */
using SinkFn = std::function<void(LogLevel, const std::string &)>;

/**
 * Current threshold: messages below it are discarded before
 * formatting hits the sink.  Initialized from MMR_LOG_LEVEL (debug |
 * info | warn | silent, case-insensitive) on first use, default Info.
 */
LogLevel level();

/** Override the threshold (wins over MMR_LOG_LEVEL). */
void setLevel(LogLevel l);

bool enabled(LogLevel l);

/**
 * Replace the output sink (nullptr restores the default stderr
 * sink, which prefixes the severity and — when a kernel is running —
 * the current flit cycle).  Returns the previous sink so tests can
 * restore it.
 */
SinkFn setSink(SinkFn sink);

/**
 * Last-gasp callback invoked by mmr_panic (and therefore mmr_assert
 * and mmr_invariant_violated) after the message prints but before the
 * abort — the flight recorder uses it to dump its event ring.  A
 * plain function pointer, not std::function: the panic path must not
 * allocate.  Re-entrant panics skip the hook.  Returns the previous
 * hook.
 */
using PanicHookFn = void (*)(const char *msg);
PanicHookFn setPanicHook(PanicHookFn hook);

} // namespace log

namespace detail
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
void debugImpl(const std::string &msg);

/**
 * While one of these lives on a thread, a panic on that thread is a
 * trip: panicImpl throws a type private to logging.cc instead of
 * printing, running the panic hook and aborting, and the guard's owner
 * catches it (`catch (...)`) and reports it its own way.  The
 * invariant checker's audit lanes use it, so that a violation seen on
 * a worker thread is found again, and reported, in serial order on
 * the coordinator.  The destructor restores the thread's previous
 * setting, so a trip unwinding through the guard clears it too.
 */
class PanicsTrip
{
  public:
    PanicsTrip();
    ~PanicsTrip();
    PanicsTrip(const PanicsTrip &) = delete;
    PanicsTrip &operator=(const PanicsTrip &) = delete;

  private:
    bool previous;
};

/** Fold a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

} // namespace detail

/** Number of warnings emitted so far (exposed for tests).  Counts
 * every warn() call, including those filtered by the level. */
unsigned warnCount();

} // namespace mmr

#define mmr_panic(...) \
    ::mmr::detail::panicImpl(__FILE__, __LINE__, \
                             ::mmr::detail::concat(__VA_ARGS__))

#define mmr_fatal(...) \
    ::mmr::detail::fatalImpl(__FILE__, __LINE__, \
                             ::mmr::detail::concat(__VA_ARGS__))

#define mmr_warn(...) \
    ::mmr::detail::warnImpl(::mmr::detail::concat(__VA_ARGS__))

#define mmr_inform(...) \
    do { \
        if (::mmr::log::enabled(::mmr::LogLevel::Info)) { \
            ::mmr::detail::informImpl( \
                ::mmr::detail::concat(__VA_ARGS__)); \
        } \
    } while (0)

/** Level-gated before formatting: free when Debug is filtered. */
#define mmr_debug(...) \
    do { \
        if (::mmr::log::enabled(::mmr::LogLevel::Debug)) { \
            ::mmr::detail::debugImpl( \
                ::mmr::detail::concat(__VA_ARGS__)); \
        } \
    } while (0)

/** panic() unless the stated internal invariant holds. */
#define mmr_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            ::mmr::detail::panicImpl(__FILE__, __LINE__, \
                ::mmr::detail::concat("assertion '", #cond, \
                                      "' failed: ", ##__VA_ARGS__)); \
        } \
    } while (0)

#endif // MMR_BASE_LOGGING_HH
