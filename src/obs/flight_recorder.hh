/**
 * @file
 * The event recorder: one record, one instrumentation macro and one
 * Chrome trace-event writer behind both the crash flight recorder and
 * the --trace files.
 *
 * A FlightRecorder holds two buffers with their own category masks:
 *
 *  - the ring, always on: a fixed-size ring of the most recent
 *    scheduler / admission / setup / control / fault events that
 *    dumps a Chrome trace-event snapshot when the simulator dies.  It
 *    answers "what were the last few thousand events before the panic
 *    I did not see coming": the dump shows the grants, admissions and
 *    fault events leading up to the failure, in Perfetto, with no
 *    re-run needed;
 *  - the trace buffer, opt-in (startTrace): the first events of a run
 *    within a cycle range, up to kTraceCapacity (later ones are
 *    dropped and counted), serialized once at the end of the run.  It
 *    answers "what happened during this run I chose to instrument",
 *    including counter samples, which never enter the ring.
 *
 * Design constraints, in order: (1) the push must be legal under
 * MMR_HOT_PATH — the ring is preallocated at construction and an
 * untraced note() is one mask test (in MMR_OBS_EVENT), one
 * not-taken branch and a masked store; the trace path sits out of
 * line behind that branch, and its growth is opt-in; (2) dumping must
 * work from a panic handler — writeChromeJson reads only the ring and
 * writes through a std::ostream; (3) recorders are thread-local, so
 * parallel sweep workers each keep their own.
 *
 * Event timestamps are flit cycles; the "tid" lane is the router port
 * the event concerns, so Perfetto renders one swim lane per port.
 * Output depends only on simulated state: same-seed runs produce
 * bit-identical files.
 *
 * Dump triggers: mmr_panic (and therefore mmr_invariant_violated and
 * mmr_assert) via the log::setPanicHook hook installed by the first
 * activate() in the process, RecoveryManager abandonment, and an
 * explicit --flight-recorder-dump=PATH end-of-run dump.
 */

#ifndef MMR_OBS_FLIGHT_RECORDER_HH
#define MMR_OBS_FLIGHT_RECORDER_HH

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "base/types.hh"

namespace mmr
{

/** Event categories, each independently switchable. */
enum class TraceCat : std::uint8_t
{
    Flit,      ///< inject / VC alloc / switch transmit
    Sched,     ///< switch-scheduler grants and matching size
    Admission, ///< bandwidth admission accept/reject
    Credit,    ///< credit consume/replenish (high volume)
    Setup,     ///< probe/EPB connection establishment phases
    Fault,     ///< link fail/repair, corruption, recovery retries
    NumCats
};

/** @p c's bit in a category mask. */
constexpr std::uint32_t
catBit(TraceCat c)
{
    return 1u << static_cast<unsigned>(c);
}

/** Every category. */
inline constexpr std::uint32_t kAllTraceCats =
    catBit(TraceCat::NumCats) - 1;

/** What the ring keeps by default: the low-volume forensic set.  A
 * scheduler grant already logs one event per moved flit (input port,
 * VC, conn, output port), so the per-flit flit/credit streams would
 * triple the event rate for little post-mortem signal. */
inline constexpr std::uint32_t kForensicTraceCats =
    catBit(TraceCat::Sched) | catBit(TraceCat::Admission) |
    catBit(TraceCat::Setup) | catBit(TraceCat::Fault);

const char *to_string(TraceCat c);

/** Parse "flit,sched,admission" style lists ("" and "all" = every
 * category); mmr_fatal on unknown names. */
std::uint32_t traceCatMaskFromString(const std::string &spec);

/** The comma-separated names of the categories in @p mask, in enum
 * order: the inverse of traceCatMaskFromString. */
std::string traceCatNames(std::uint32_t mask);

class FlightRecorder
{
  public:
    /** One recorded event.  Packed to 32 bytes: the ring is written
     * ~20 times per simulated cycle, so its footprint competes
     * directly with the VC arrays for L2 (lane is a port index, never
     * near 2^16). */
    struct alignas(32) Event
    {
        Cycle cycle;
        const char *name; ///< static string, not copied
        ConnId conn;
        std::int32_t a0;  ///< a counter's value
        std::int32_t a1;
        std::uint16_t lane;
        TraceCat cat;
        char phase;       ///< 'i' instant, 'C' counter
    };
    static_assert(sizeof(Event) == 32,
                  "recorder events must stay cache-compact");

    /** One cache line of events: the ring's storage granule, and the
     * staging buffer note() fills before committing a whole line. */
    struct alignas(64) EventPair
    {
        Event e[2];
    };

    /** Default ring depth.  2048 events (~64KB) still spans the last
     * ~100 cycles of an 8-port run while leaving L2 to the simulator
     * proper; a deeper post-mortem window is one CLI flag away
     * (--flight-recorder-depth). */
    static constexpr std::size_t kDefaultCapacity = 1u << 11;

    /** Trace-buffer cap in events (128 MiB); later events are dropped
     * and counted in the trace's otherData. */
    static constexpr std::size_t kTraceCapacity = 1u << 22;

    /** @param capacity ring depth; rounded up to a power of two. */
    explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** The calling thread's installed recorder; nullptr = none. */
    static FlightRecorder *active() { return current; }

    /** True when this thread has a recorder installed. */
    static bool wants() { return current != nullptr; }

    /** The fast path of MMR_OBS_EVENT: this thread's recorder if one
     * of its buffers accepts @p c, else nullptr (one thread-local
     * load and one mask test). */
    static FlightRecorder *
    activeFor(TraceCat c)
    {
        FlightRecorder *fr = current;
        if (fr == nullptr || ((fr->catMask | fr->traceCats) & catBit(c)) == 0)
            return nullptr;
        return fr;
    }

    /** Restrict the ring to the categories in @p cats (a fresh
     * recorder keeps kForensicTraceCats). */
    void setCategoryMask(std::uint32_t cats) { catMask = cats; }
    std::uint32_t categoryMask() const { return catMask; }

    /** Install as this thread's recorder (at most one active per
     * thread); the first activation in the process also hooks
     * mmr_panic so a crash dumps the active ring. */
    void activate();

    /** Uninstall (also done by the destructor). */
    void deactivate();

    /** Where crash dumps land; default "mmr-flight.json" in cwd. */
    void setDumpPath(const std::string &path) { dumpFile = path; }
    const std::string &dumpPath() const { return dumpFile; }

    /**
     * Record an instant event.  Callers test activeFor(cat) first
     * (MMR_OBS_EVENT does); untraced, the event goes straight to the
     * ring.
     *
     * The ring push is allocation-free: a store into the always-hot
     * staging line plus, every second event, one full-cache-line
     * commit into the ring.  The ring is write-only until a
     * post-mortem dump, so on x86 the commit uses non-temporal stores
     * — a complete 64-byte line written back-to-back drains the
     * write-combining buffer in a single burst, costing the simulator
     * no L1/L2 residency and no read-for-ownership traffic.
     * (Streaming each 32-byte event on its own would flush the WC
     * buffer half-full every time and is slower than plain stores;
     * the pairwise staging is what makes the always-on recorder
     * affordable.)  The trace path is one call behind one not-taken
     * branch, so note() stays small enough to inline at hot sites.
     *
     * @param name static string (not copied)
     * @param lane rendering lane, normally the port concerned
     * @param conn connection id or kInvalidConn
     * @param a0,a1 small integer args (VC ids, cycle counts, ...);
     *        negative = absent
     */
    MMR_HOT_PATH void
    note(TraceCat cat, const char *name, Cycle now, std::uint32_t lane,
         ConnId conn, std::int32_t a0 = -1, std::int32_t a1 = -1)
    {
        Event &e = staged.e[static_cast<std::size_t>(head) & 1];
        e.cycle = now;
        e.name = name;
        e.conn = conn;
        e.a0 = a0;
        e.a1 = a1;
        e.lane = static_cast<std::uint16_t>(lane);
        e.cat = cat;
        e.phase = 'i';
        if ((traceCats & catBit(cat)) != 0) [[unlikely]] {
            trace(e);
            // Left uncommitted, the staged slot is simply reused by
            // the next event.
            if ((catMask & catBit(cat)) == 0)
                return;
        }
        if (head & 1) {
            EventPair &line =
                ring[(static_cast<std::size_t>(head) & mask) >> 1];
#if defined(__SSE2__)
            const auto *src =
                reinterpret_cast<const __m128i *>(&staged);
            auto *dst = reinterpret_cast<__m128i *>(&line);
            _mm_stream_si128(dst + 0, _mm_load_si128(src + 0));
            _mm_stream_si128(dst + 1, _mm_load_si128(src + 1));
            _mm_stream_si128(dst + 2, _mm_load_si128(src + 2));
            _mm_stream_si128(dst + 3, _mm_load_si128(src + 3));
#else
            line = staged;
#endif
        }
        ++head;
    }

    /** Record a counter sample (renders as a graph track).  Counters
     * feed only the trace buffer: one sample per router per cycle
     * would take about one ring slot in five, and the values are
     * already stats-registry series. */
    void
    counter(TraceCat cat, const char *name, Cycle now, std::int32_t value)
    {
        if ((traceCats & catBit(cat)) != 0) [[unlikely]]
            trace(Event{now, name, kInvalidConn, value, -1, 0, cat, 'C'});
    }

    /** Ring events ever pushed (>= stored() once the ring wraps). */
    std::uint64_t recorded() const { return head; }

    /** Ring events currently held (min(recorded, capacity)). */
    std::size_t stored() const;

    std::size_t capacity() const { return ring.size() * 2; }

    /** Oldest retained ring event (valid when stored() > 0). */
    const Event &oldest() const;

    /**
     * Start the trace buffer: until stopTrace(), events in the
     * categories of @p cats with cycle in [from, to] are also appended
     * to it.  Discards any earlier trace; at most one trace runs at a
     * time.
     */
    void startTrace(std::uint32_t cats, Cycle from = 0,
                    Cycle to = std::numeric_limits<Cycle>::max());

    /** Stop appending; the buffer stays for writeTraceJson(). */
    void stopTrace() { traceCats = 0; }

    /** Trace-buffer events held, and those dropped past the cap. */
    std::size_t traceSize() const { return traceBuf.size(); }
    std::uint64_t traceDropped() const { return dropped; }

    /**
     * Serialize the retained ring window, oldest first, as Chrome
     * trace-event JSON.  @p reason lands in the metadata so a dump
     * says why it exists ("panic", "recovery_abandoned", ...).
     */
    void writeChromeJson(std::ostream &os, const char *reason) const;

    /** Serialize the trace buffer, in record order, in the same
     * format (reason "trace", plus the drop count). */
    void writeTraceJson(std::ostream &os) const;

    /** writeChromeJson to @p path; false (with a warning) on I/O
     * failure.  Safe to call from the panic path. */
    bool dumpTo(const std::string &path, const char *reason) const;

    /**
     * Dump the calling thread's active recorder to its dump path.
     * No-op (returns false) when no recorder is active; used by the
     * panic hook and the RecoveryManager abandonment path.
     */
    static bool dumpActive(const char *reason);

  private:
    /** Event @p idx (< head), wherever it currently lives: the most
     * recent event sits in the staging line until its pair-mate
     * completes the cache line and both are committed to the ring. */
    const Event &
    eventAt(std::uint64_t idx) const
    {
        if ((head & 1) != 0 && idx == head - 1)
            return staged.e[0];
        const std::size_t slot = static_cast<std::size_t>(idx) & mask;
        return ring[slot >> 1].e[slot & 1];
    }

    /** Append @p e to the trace buffer if it is in the cycle range. */
    void trace(const Event &e);

    // Constant-initialized and visible here, so every access is a
    // plain thread-pointer load with no TLS wrapper call.
    static inline thread_local FlightRecorder *current = nullptr;

    std::vector<EventPair> ring; ///< preallocated, power-of-two lines
    std::size_t mask;            ///< event-index mask (capacity - 1)
    std::uint32_t catMask = kForensicTraceCats; ///< ring's categories
    std::uint32_t traceCats = 0; ///< trace's categories; 0 = stopped
    std::uint64_t head = 0;
    EventPair staged{};          ///< L1-hot line under construction

    Cycle traceFrom = 0;
    Cycle traceTo = 0;
    std::vector<Event> traceBuf;
    std::uint64_t dropped = 0;
    std::string dumpFile = "mmr-flight.json";
};

} // namespace mmr

// ---------------------------------------------------------------------
// The instrumentation macro: one thread-local load and one mask test
// when no buffer wants the category; arguments are not evaluated then.
// ---------------------------------------------------------------------

#define MMR_OBS_EVENT(cat, name, now, lane, conn, ...) \
    do { \
        if (::mmr::FlightRecorder *mmr_obs_fr = \
                ::mmr::FlightRecorder::activeFor(cat)) { \
            mmr_obs_fr->note(cat, name, now, lane, conn, ##__VA_ARGS__); \
        } \
    } while (0)

#endif // MMR_OBS_FLIGHT_RECORDER_HH
