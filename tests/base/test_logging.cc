/**
 * @file
 * Tests for the error/status reporting discipline (gem5-style):
 * panic aborts (internal bug), fatal throws a catchable user error,
 * warn counts, and the assertion macro formats its message.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/simclock.hh"

namespace mmr
{
namespace
{

/** Capture everything that reaches the sink, restoring on scope exit. */
class SinkCapture
{
  public:
    SinkCapture()
    {
        prev = log::setSink([this](LogLevel l, const std::string &m) {
            lines.emplace_back(l, m);
        });
        prevLevel = log::level();
    }
    ~SinkCapture()
    {
        log::setSink(std::move(prev));
        log::setLevel(prevLevel);
    }

    std::vector<std::pair<LogLevel, std::string>> lines;

  private:
    log::SinkFn prev;
    LogLevel prevLevel;
};

TEST(Logging, FatalThrowsWithComposedMessage)
{
    try {
        mmr_fatal("bad value ", 42, " for ", "knob");
        FAIL() << "fatal must not return";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("bad value 42 for knob"),
                  std::string::npos);
        EXPECT_NE(what.find("fatal:"), std::string::npos);
        EXPECT_NE(what.find("test_logging.cc"), std::string::npos)
            << "the source location helps users report problems";
    }
}

TEST(Logging, WarnIncrementsTheCounter)
{
    const unsigned before = warnCount();
    mmr_warn("something looks off: ", 3.14);
    mmr_warn("again");
    EXPECT_EQ(warnCount(), before + 2);
}

TEST(Logging, InformIsSideEffectFree)
{
    const unsigned before = warnCount();
    mmr_inform("status message ", 7);
    EXPECT_EQ(warnCount(), before);
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(mmr_panic("invariant ", "broken"), "invariant broken");
}

TEST(LoggingDeath, AssertFormatsConditionAndMessage)
{
    const int x = 3;
    EXPECT_DEATH(mmr_assert(x == 4, "x was ", x),
                 "assertion 'x == 4' failed: x was 3");
}

TEST(LoggingDeath, PanicUnderATripGuardThrowsAndTheGuardRestores)
{
    // Under the guard a panic throws instead of printing and aborting;
    // nested guards restore the outer setting, and once the last one
    // is gone (here by a trip unwinding through it) a panic aborts.
    bool tripped = false;
    try {
        const detail::PanicsTrip outer;
        {
            const detail::PanicsTrip inner;
        }
        mmr_panic("seen on a worker");
    } catch (...) {
        tripped = true;
    }
    EXPECT_TRUE(tripped);
    EXPECT_DEATH(mmr_panic("after the guard"), "panic: after the guard");
}

TEST(Logging, AssertPassesSilently)
{
    mmr_assert(1 + 1 == 2, "arithmetic holds");
    SUCCEED();
}

TEST(Logging, MessagesRouteThroughTheSink)
{
    SinkCapture cap;
    log::setLevel(LogLevel::Debug);
    mmr_warn("w ", 1);
    mmr_inform("i ", 2);
    mmr_debug("d ", 3);
    ASSERT_EQ(cap.lines.size(), 3u);
    EXPECT_EQ(cap.lines[0].first, LogLevel::Warn);
    EXPECT_EQ(cap.lines[0].second, "w 1");
    EXPECT_EQ(cap.lines[1].first, LogLevel::Info);
    EXPECT_EQ(cap.lines[1].second, "i 2");
    EXPECT_EQ(cap.lines[2].first, LogLevel::Debug);
    EXPECT_EQ(cap.lines[2].second, "d 3");
}

TEST(Logging, LevelFiltersBelowThreshold)
{
    SinkCapture cap;
    log::setLevel(LogLevel::Warn);
    mmr_debug("hidden");
    mmr_inform("hidden too");
    mmr_warn("visible");
    ASSERT_EQ(cap.lines.size(), 1u);
    EXPECT_EQ(cap.lines[0].second, "visible");

    log::setLevel(LogLevel::Silent);
    mmr_warn("swallowed");
    EXPECT_EQ(cap.lines.size(), 1u);
}

TEST(Logging, FilteredWarnStillCounts)
{
    // Tests gate on warnCount(); the level must not hide misbehavior.
    SinkCapture cap;
    log::setLevel(LogLevel::Silent);
    const unsigned before = warnCount();
    mmr_warn("silent but counted");
    EXPECT_EQ(warnCount(), before + 1);
    EXPECT_TRUE(cap.lines.empty());
}

TEST(Logging, EnabledMatchesThreshold)
{
    SinkCapture cap;
    log::setLevel(LogLevel::Info);
    EXPECT_FALSE(log::enabled(LogLevel::Debug));
    EXPECT_TRUE(log::enabled(LogLevel::Info));
    EXPECT_TRUE(log::enabled(LogLevel::Warn));
    log::setLevel(LogLevel::Silent);
    EXPECT_FALSE(log::enabled(LogLevel::Warn));
}

TEST(Logging, SimclockReportsKernelActivity)
{
    // The default sink prefixes "[cycle N]" when a kernel is stepping;
    // the underlying signal is the simclock.
    EXPECT_FALSE(simclock::active());
    simclock::set(1234);
    EXPECT_TRUE(simclock::active());
    EXPECT_EQ(simclock::now(), 1234u);
    simclock::clear();
    EXPECT_FALSE(simclock::active());
}

} // namespace
} // namespace mmr
