/**
 * @file
 * Tests for the router configuration surface: validation of the §2
 * quantitative parameters, name round-trips, and derived quantities.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "router/config.hh"
#include "router/router.hh"

namespace mmr
{
namespace
{

TEST(Config, DefaultsAreThePaperDesignPoint)
{
    const RouterConfig cfg;
    EXPECT_EQ(cfg.numPorts, 8u);
    EXPECT_EQ(cfg.vcsPerPort, 256u);
    EXPECT_DOUBLE_EQ(cfg.linkRateBps, 1.24 * kGbps);
    EXPECT_EQ(cfg.flitBits, 128u);
    EXPECT_NEAR(cfg.flitCycleNanos(), 103.2, 0.1);
    EXPECT_EQ(cfg.cyclesPerRound(), 512u); // K=2 x 256 VCs
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, SchedulerNamesRoundTrip)
{
    for (SchedulerKind k :
         {SchedulerKind::BiasedPriority, SchedulerKind::FixedPriority,
          SchedulerKind::AgePriority, SchedulerKind::Autonet,
          SchedulerKind::Islip, SchedulerKind::Perfect}) {
        EXPECT_EQ(schedulerKindFromString(to_string(k)), k);
    }
    EXPECT_EQ(schedulerKindFromString("dec"), SchedulerKind::Autonet);
    EXPECT_EQ(schedulerKindFromString("pim"), SchedulerKind::Autonet);
    EXPECT_THROW(schedulerKindFromString("nonsense"),
                 std::runtime_error);
}

TEST(Config, CrossbarNames)
{
    EXPECT_EQ(to_string(CrossbarOrg::Multiplexed), "multiplexed");
    EXPECT_EQ(to_string(CrossbarOrg::PartiallyDemuxed),
              "partially-demuxed");
    EXPECT_EQ(to_string(CrossbarOrg::FullyDemuxed), "fully-demuxed");
}

/** Every invalid-parameter branch must be fatal (user error), and
 * the router must reach that check before building any part that
 * asserts on the same value. */
TEST(Config, ValidationRejectsNonsense)
{
    auto expect_invalid = [](auto &&mutate) {
        RouterConfig cfg;
        mutate(cfg);
        EXPECT_THROW(cfg.validate(), std::runtime_error);
        EXPECT_THROW(MmrRouter router(cfg), std::runtime_error);
    };
    expect_invalid([](RouterConfig &c) { c.numPorts = 0; });
    expect_invalid([](RouterConfig &c) { c.numPorts = 2048; });
    expect_invalid([](RouterConfig &c) { c.vcsPerPort = 0; });
    // VC 65535 would read as kInvalidVc.
    expect_invalid([](RouterConfig &c) { c.vcsPerPort = 65536; });
    expect_invalid([](RouterConfig &c) { c.linkRateBps = 0.0; });
    expect_invalid([](RouterConfig &c) { c.linkRateBps = -1.0; });
    expect_invalid([](RouterConfig &c) { c.flitBits = 0; });
    expect_invalid([](RouterConfig &c) { c.flitBits = 129; });
    expect_invalid([](RouterConfig &c) { c.vcBufferFlits = 0; });
    expect_invalid([](RouterConfig &c) { c.roundFactorK = 0; });
    // The round length K x V would overflow unsigned.
    expect_invalid([](RouterConfig &c) {
        c.roundFactorK = 1u << 31;
        c.vcsPerPort = 2;
        c.candidates = 2;
    });
    expect_invalid([](RouterConfig &c) { c.candidates = 0; });
    expect_invalid([](RouterConfig &c) {
        c.candidates = c.vcsPerPort + 1;
    });
    expect_invalid([](RouterConfig &c) { c.concurrencyFactor = 0.5; });
    expect_invalid([](RouterConfig &c) { c.bestEffortReserve = 1.0; });
    expect_invalid([](RouterConfig &c) { c.bestEffortReserve = -0.1; });
}

TEST(Config, FlitCycleScalesWithLinkAndFlit)
{
    RouterConfig cfg;
    cfg.flitBits = 128;
    cfg.linkRateBps = 2.0 * kGbps;
    EXPECT_NEAR(cfg.flitCycleNanos(), 64.0, 0.01); // §6: 64-128 ns
    cfg.linkRateBps = 1.0 * kGbps;
    EXPECT_NEAR(cfg.flitCycleNanos(), 128.0, 0.01);
}

TEST(Config, AgeSchedulerRunsEndToEnd)
{
    RouterConfig cfg;
    cfg.numPorts = 2;
    cfg.vcsPerPort = 4;
    cfg.scheduler = SchedulerKind::AgePriority;
    EXPECT_NO_THROW(cfg.validate());
}

} // namespace
} // namespace mmr
