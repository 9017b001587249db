/**
 * @file
 * Tests for the crash flight recorder: ring retention and wrap
 * behaviour, the default forensic categories, the Chrome-trace dump
 * format, the MMR_OBS_EVENT macro, and the panic hook that turns an
 * mmr_assert deep in a run into a post-mortem artifact.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "base/logging.hh"
#include "obs/flight_recorder.hh"
#include "obs/obs_config.hh"

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

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo)
{
    FlightRecorder fr(100);
    EXPECT_EQ(fr.capacity(), 128u);
    FlightRecorder tiny(0);
    EXPECT_EQ(tiny.capacity(), 2u);
    FlightRecorder exact(64);
    EXPECT_EQ(exact.capacity(), 64u);
}

TEST(FlightRecorder, RingKeepsTheMostRecentEvents)
{
    FlightRecorder fr(4);
    for (int i = 0; i < 10; ++i)
        fr.note(TraceCat::Sched, "grant", static_cast<Cycle>(i), 0,
                kInvalidConn);
    EXPECT_EQ(fr.recorded(), 10u);
    EXPECT_EQ(fr.stored(), 4u);
    // Events 6..9 survive; 0..5 were overwritten.
    EXPECT_EQ(fr.oldest().cycle, 6u);
}

TEST(FlightRecorder, InactiveByDefault)
{
    EXPECT_FALSE(FlightRecorder::wants());
    EXPECT_EQ(FlightRecorder::active(), nullptr);
    EXPECT_FALSE(FlightRecorder::dumpActive("test"));
}

TEST(FlightRecorder, ActivateInstallsThreadLocal)
{
    FlightRecorder fr;
    {
        Scoped s(fr);
        EXPECT_TRUE(FlightRecorder::wants());
        EXPECT_EQ(FlightRecorder::active(), &fr);
    }
    EXPECT_FALSE(FlightRecorder::wants());
}

TEST(FlightRecorder, DefaultRingKeepsTheForensicSet)
{
    EXPECT_EQ(traceCatNames(kForensicTraceCats),
              "sched,admission,setup,fault");
    EXPECT_EQ(traceCatMaskFromString(ObsConfig{}.flightRecorderCats),
              kForensicTraceCats)
        << "the harness default must be the recorder default";

    FlightRecorder fr;
    EXPECT_EQ(fr.categoryMask(), kForensicTraceCats);
    Scoped s(fr);
    for (unsigned c = 0; c < static_cast<unsigned>(TraceCat::NumCats);
         ++c) {
        const auto cat = static_cast<TraceCat>(c);
        MMR_OBS_EVENT(cat, to_string(cat), Cycle{c}, 0u, kInvalidConn);
    }
    EXPECT_EQ(fr.recorded(), 4u);
    std::ostringstream os;
    fr.writeChromeJson(os, "unit_test");
    for (unsigned c = 0; c < static_cast<unsigned>(TraceCat::NumCats);
         ++c) {
        const auto cat = static_cast<TraceCat>(c);
        const bool kept = os.str().find(std::string("\"name\":\"") +
                                        to_string(cat) + "\"") !=
                          std::string::npos;
        EXPECT_EQ(kept, (kForensicTraceCats & catBit(cat)) != 0)
            << to_string(cat);
    }
}

TEST(FlightRecorder, ObsEventMacroFeedsTheActiveRecorder)
{
    FlightRecorder fr;
    fr.setCategoryMask(catBit(TraceCat::Flit));
    Scoped s(fr);
    MMR_OBS_EVENT(TraceCat::Flit, "xmit", Cycle{42}, 3u, ConnId{7}, 1,
                  2);
    ASSERT_EQ(fr.stored(), 1u);
    EXPECT_EQ(fr.oldest().cycle, 42u);
    EXPECT_EQ(fr.oldest().conn, 7u);
    EXPECT_EQ(fr.oldest().a0, 1);
    EXPECT_EQ(fr.oldest().a1, 2);
    EXPECT_EQ(fr.oldest().lane, 3u);
    EXPECT_STREQ(fr.oldest().name, "xmit");
}

TEST(FlightRecorder, ChromeJsonIsOldestFirstWithReason)
{
    FlightRecorder fr(4);
    for (int i = 0; i < 6; ++i)
        fr.note(TraceCat::Credit, "credit", static_cast<Cycle>(i * 10),
                1, ConnId{5}, i);
    std::ostringstream os;
    fr.writeChromeJson(os, "unit_test");
    const std::string s = os.str();
    EXPECT_NE(s.find("\"reason\":\"unit_test\""), std::string::npos)
        << s;
    EXPECT_NE(s.find("\"recorded\":6"), std::string::npos);
    EXPECT_NE(s.find("\"retained\":4"), std::string::npos);
    // Oldest retained first (cycle 20), newest (cycle 50) last.
    const auto first = s.find("\"ts\":20");
    const auto last = s.find("\"ts\":50");
    EXPECT_NE(first, std::string::npos);
    EXPECT_NE(last, std::string::npos);
    EXPECT_LT(first, last);
    EXPECT_EQ(s.find("\"ts\":10"), std::string::npos)
        << "overwritten events must not leak into the dump";
    EXPECT_NE(s.find("\"cat\":\"credit\""), std::string::npos);
}

TEST(FlightRecorder, DumpToWritesAFile)
{
    const std::string path =
        testing::TempDir() + "mmr_flight_dump_test.json";
    FlightRecorder fr;
    fr.note(TraceCat::Fault, "link_down", 99, 2, kInvalidConn, 4);
    ASSERT_TRUE(fr.dumpTo(path, "explicit"));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(buf.str().find("link_down"), std::string::npos);
    std::remove(path.c_str());
}

TEST(FlightRecorderDeath, PanicDumpsTheBlackBox)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path =
        testing::TempDir() + "mmr_flight_panic_test.json";
    std::remove(path.c_str());

    // The child inherits nothing: build the recorder inside.
    EXPECT_DEATH(
        {
            FlightRecorder fr(16);
            fr.setDumpPath(path);
            fr.activate();
            for (int i = 0; i < 20; ++i)
                fr.note(TraceCat::Sched, "grant",
                        static_cast<Cycle>(i), 0, kInvalidConn);
            mmr_assert(false, "forced failure for the flight "
                              "recorder death test");
        },
        "forced failure");

    // The hook ran before abort: the dump exists and says why.
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "panic produced no flight dump at "
                           << path;
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("\"reason\":\"panic\""),
              std::string::npos)
        << buf.str();
    EXPECT_NE(buf.str().find("\"retained\":16"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace mmr
