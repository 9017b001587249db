/**
 * @file
 * Tests for the recorder's trace buffer: category mask parsing, the
 * activation protocol MMR_OBS_EVENT relies on, per-buffer category
 * gating, cycle-range and overflow behaviour, and the Chrome
 * trace-event JSON shape Perfetto loads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>

#include "base/types.hh"
#include "obs/flight_recorder.hh"

namespace mmr
{
namespace
{

/** RAII activation so a failing EXPECT cannot leak a thread-local
 * recorder into the next test. */
struct Scoped
{
    explicit Scoped(FlightRecorder &fr) : rec(fr) { rec.activate(); }
    ~Scoped() { rec.deactivate(); }
    FlightRecorder &rec;
};

/** Stream buffer that keeps only the first bytes written: the head of
 * a JSON document too large to hold in memory. */
class HeadSink : public std::streambuf
{
  public:
    std::string head;

  protected:
    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        const std::size_t room = kKeep - std::min(head.size(), kKeep);
        head.append(s, std::min(static_cast<std::size_t>(n), room));
        return n;
    }

    int_type
    overflow(int_type c) override
    {
        if (head.size() < kKeep && !traits_type::eq_int_type(
                                       c, traits_type::eof()))
            head.push_back(traits_type::to_char_type(c));
        return traits_type::not_eof(c);
    }

  private:
    static constexpr std::size_t kKeep = 4096;
};

TEST(TraceCatMask, ParsesListsAndAll)
{
    EXPECT_EQ(traceCatMaskFromString(""), kAllTraceCats);
    EXPECT_EQ(traceCatMaskFromString("all"), kAllTraceCats);

    const std::uint32_t fs = traceCatMaskFromString("flit,sched");
    EXPECT_EQ(fs, catBit(TraceCat::Flit) | catBit(TraceCat::Sched));

    EXPECT_EQ(traceCatMaskFromString("credit"), catBit(TraceCat::Credit));

    // traceCatNames is the inverse, in enum order.
    EXPECT_EQ(traceCatNames(kAllTraceCats),
              "flit,sched,admission,credit,setup,fault");
    EXPECT_EQ(traceCatNames(fs), "flit,sched");
    EXPECT_EQ(traceCatMaskFromString(traceCatNames(kForensicTraceCats)),
              kForensicTraceCats);
}

TEST(TraceCatMask, UnknownCategoryIsAUserError)
{
    // mmr_fatal: a typo in --trace-cats must fail loudly, not trace
    // nothing, and the message lists every valid name.
    try {
        traceCatMaskFromString("flit,shced");
        FAIL() << "an unknown category must be fatal";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "flit,sched,admission,credit,setup,fault, or all"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(traceCatMaskFromString("control"), std::runtime_error)
        << "no category is named control";
}

TEST(FlightRecorderTrace, MacrosAreInertWithoutAnActiveRecorder)
{
    ASSERT_EQ(FlightRecorder::active(), nullptr);
    EXPECT_EQ(FlightRecorder::activeFor(TraceCat::Flit), nullptr);
    // The disabled fast path: this must be a safe no-op.
    MMR_OBS_EVENT(TraceCat::Flit, "inject", 1, 0, kInvalidConn);
    SUCCEED();
}

TEST(FlightRecorderTrace, ActivationScopesTheGlobalPointer)
{
    {
        FlightRecorder fr;
        fr.activate();
        EXPECT_EQ(FlightRecorder::active(), &fr);
        EXPECT_EQ(FlightRecorder::activeFor(TraceCat::Sched), &fr);
        // The destructor deactivates.
    }
    EXPECT_EQ(FlightRecorder::active(), nullptr);
}

TEST(FlightRecorderTrace, CategoryMaskGatesTheMacros)
{
    FlightRecorder fr;
    fr.setCategoryMask(0);
    fr.startTrace(traceCatMaskFromString("sched"));
    Scoped s(fr);
    EXPECT_EQ(FlightRecorder::activeFor(TraceCat::Flit), nullptr);
    EXPECT_EQ(FlightRecorder::activeFor(TraceCat::Sched), &fr);

    MMR_OBS_EVENT(TraceCat::Flit, "inject", 1, 0, kInvalidConn);
    EXPECT_EQ(fr.traceSize(), 0u);
    MMR_OBS_EVENT(TraceCat::Sched, "grant", 1, 0, kInvalidConn);
    EXPECT_EQ(fr.traceSize(), 1u);
    EXPECT_EQ(fr.recorded(), 0u) << "the ring accepts no category";

    fr.stopTrace();
    EXPECT_EQ(FlightRecorder::activeFor(TraceCat::Sched), nullptr);
}

TEST(FlightRecorderTrace, EachEventReachesTheBuffersThatAcceptIt)
{
    FlightRecorder fr;
    fr.setCategoryMask(catBit(TraceCat::Sched));
    fr.startTrace(catBit(TraceCat::Flit));
    Scoped s(fr);

    MMR_OBS_EVENT(TraceCat::Sched, "grant", 1, 0, ConnId{4});
    EXPECT_EQ(fr.recorded(), 1u);
    EXPECT_EQ(fr.traceSize(), 0u);

    MMR_OBS_EVENT(TraceCat::Flit, "xmit", 2, 1, ConnId{4});
    EXPECT_EQ(fr.recorded(), 1u);
    EXPECT_EQ(fr.traceSize(), 1u);

    MMR_OBS_EVENT(TraceCat::Credit, "credit_consume", 3, 1, ConnId{4});
    EXPECT_EQ(fr.recorded(), 1u);
    EXPECT_EQ(fr.traceSize(), 1u);

    // Counter samples feed the trace buffer only, even when the ring
    // accepts their category.
    fr.counter(TraceCat::Sched, "sched.matching_size", 4, 2);
    EXPECT_EQ(fr.recorded(), 1u);
    EXPECT_EQ(fr.traceSize(), 1u);
    fr.setCategoryMask(kAllTraceCats);
    fr.counter(TraceCat::Flit, "queue_depth", 5, 3);
    EXPECT_EQ(fr.recorded(), 1u);
    EXPECT_EQ(fr.traceSize(), 2u);

    EXPECT_STREQ(fr.oldest().name, "grant");
    std::ostringstream os;
    fr.writeTraceJson(os);
    const std::string t = os.str();
    EXPECT_NE(t.find("\"name\":\"xmit\""), std::string::npos) << t;
    EXPECT_NE(t.find("\"name\":\"queue_depth\""), std::string::npos);
    EXPECT_EQ(t.find("\"name\":\"grant\""), std::string::npos);
}

TEST(FlightRecorderTrace, CycleRangeFiltersRecords)
{
    FlightRecorder fr;
    fr.startTrace(kAllTraceCats, 10, 20);
    fr.note(TraceCat::Flit, "early", 9, 0, kInvalidConn);
    fr.note(TraceCat::Flit, "in", 10, 0, kInvalidConn);
    fr.note(TraceCat::Flit, "in", 20, 0, kInvalidConn);
    fr.note(TraceCat::Flit, "late", 21, 0, kInvalidConn);
    fr.counter(TraceCat::Sched, "c", 25, 1);
    EXPECT_EQ(fr.traceSize(), 2u);
}

TEST(FlightRecorderTrace, OverflowDropsAndCounts)
{
    // The cap is the real one: the trace keeps the first
    // kTraceCapacity events and counts the rest.
    constexpr std::size_t cap = FlightRecorder::kTraceCapacity;
    FlightRecorder fr;
    fr.startTrace(catBit(TraceCat::Flit));
    for (std::size_t i = 0; i < cap + 3; ++i)
        fr.note(TraceCat::Flit, "e", static_cast<Cycle>(i), 0,
                kInvalidConn);
    EXPECT_EQ(fr.traceSize(), cap);
    EXPECT_EQ(fr.traceDropped(), 3u);

    HeadSink sink;
    std::ostream os(&sink);
    fr.writeTraceJson(os);
    const std::string meta = "\"recorded\":" + std::to_string(cap + 3) +
                             ",\"retained\":" + std::to_string(cap) +
                             ",\"dropped_events\":3";
    EXPECT_NE(sink.head.find(meta), std::string::npos) << sink.head;
    EXPECT_NE(sink.head.find("\"traceEvents\":[{\"name\":\"e\","
                             "\"cat\":\"flit\",\"ph\":\"i\",\"ts\":0,"),
              std::string::npos)
        << "the first events are the ones kept";
}

TEST(FlightRecorderTrace, ChromeJsonShape)
{
    FlightRecorder fr;
    fr.startTrace(kAllTraceCats);
    fr.note(TraceCat::Flit, "inject", 42, 3, 7, 5);
    fr.note(TraceCat::Setup, "probe", 50, 1, kInvalidConn);
    fr.counter(TraceCat::Sched, "sched.matching_size", 60, 2);

    std::ostringstream os;
    fr.writeTraceJson(os);
    const std::string s = os.str();

    EXPECT_NE(s.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
    // Instant event: ts = cycle, tid = lane, scoped to the thread,
    // conn + a0 in args.
    EXPECT_NE(s.find("{\"name\":\"inject\",\"cat\":\"flit\","
                     "\"ph\":\"i\",\"ts\":42,\"pid\":1,\"tid\":3,"
                     "\"s\":\"t\",\"args\":{\"conn\":7,\"a0\":5}}"),
              std::string::npos)
        << s;
    // kInvalidConn and negative args are omitted entirely.
    EXPECT_NE(s.find("{\"name\":\"probe\",\"cat\":\"setup\","
                     "\"ph\":\"i\",\"ts\":50,\"pid\":1,\"tid\":1,"
                     "\"s\":\"t\",\"args\":{}}"),
              std::string::npos)
        << s;
    // Counter event renders as a graph track.
    EXPECT_NE(s.find("{\"name\":\"sched.matching_size\","
                     "\"cat\":\"sched\",\"ph\":\"C\",\"ts\":60,"
                     "\"pid\":1,\"tid\":0,\"args\":{\"value\":2}}"),
              std::string::npos)
        << s;
}

TEST(FlightRecorderTrace, EmptyTraceIsStillValidJson)
{
    FlightRecorder fr;
    std::ostringstream os;
    fr.writeTraceJson(os);
    EXPECT_EQ(os.str(),
              "{\"displayTimeUnit\":\"ns\",\"otherData\":{"
              "\"reason\":\"trace\",\"recorded\":0,\"retained\":0,"
              "\"dropped_events\":0},\"traceEvents\":[]}\n");
}

TEST(FlightRecorderTraceDeath, SecondActiveRecorderIsABug)
{
    FlightRecorder first;
    first.activate();
    FlightRecorder second;
    EXPECT_DEATH(second.activate(), "already active");
}

TEST(FlightRecorderTraceDeath, InvertedCycleRangeIsABug)
{
    FlightRecorder fr;
    EXPECT_DEATH(fr.startTrace(kAllTraceCats, 20, 10), "inverted");
}

} // namespace
} // namespace mmr
