/**
 * @file
 * Unit tests for the Routing and Arbitration Unit (§3.5): VC pools
 * and direct/reverse channel mappings.
 */

#include <gtest/gtest.h>

#include "router/routing_unit.hh"

namespace mmr
{
namespace
{

TEST(RoutingUnit, AllVcsStartFree)
{
    RoutingUnit r(4, 16);
    for (PortId p = 0; p < 4; ++p) {
        EXPECT_EQ(r.freeInputVcCount(p), 16u);
        EXPECT_EQ(r.freeOutputVcCount(p), 16u);
    }
}

TEST(RoutingUnit, AllocLowestFirstAndExhausts)
{
    RoutingUnit r(1, 3);
    EXPECT_EQ(r.allocInputVc(0), 0u);
    EXPECT_EQ(r.allocInputVc(0), 1u);
    EXPECT_EQ(r.allocInputVc(0), 2u);
    EXPECT_EQ(r.allocInputVc(0), kInvalidVc);
    EXPECT_EQ(r.freeInputVcCount(0), 0u);
}

TEST(RoutingUnit, FreeMakesVcReusable)
{
    RoutingUnit r(1, 2);
    ASSERT_EQ(r.allocOutputVc(0), 0u);
    ASSERT_EQ(r.allocOutputVc(0), 1u);
    r.freeOutputVc(0, 0);
    EXPECT_EQ(r.allocOutputVc(0), 0u) << "lowest free VC is reused";
}

TEST(RoutingUnit, InputAndOutputPoolsAreSeparate)
{
    RoutingUnit r(1, 2);
    ASSERT_EQ(r.allocInputVc(0), 0u);
    EXPECT_EQ(r.allocOutputVc(0), 0u)
        << "input allocation must not consume output VCs";
}

TEST(RoutingUnit, DirectAndReverseMappings)
{
    RoutingUnit r(4, 8);
    const ChannelRef in{1, 3};
    const ChannelRef out{2, 5};
    r.map(in, out);
    EXPECT_TRUE(r.directMap(in) == out);
    EXPECT_TRUE(r.reverseMap(out) == in);
    // Unrelated channels stay unmapped.
    EXPECT_FALSE(r.directMap(ChannelRef{1, 4}).valid());
    EXPECT_FALSE(r.reverseMap(ChannelRef{2, 6}).valid());

    r.unmap(in);
    EXPECT_FALSE(r.directMap(in).valid());
    EXPECT_FALSE(r.reverseMap(out).valid());
}

TEST(RoutingUnitDeath, DoubleMapPanics)
{
    RoutingUnit r(2, 2);
    r.map(ChannelRef{0, 0}, ChannelRef{1, 0});
    EXPECT_DEATH(r.map(ChannelRef{0, 0}, ChannelRef{1, 1}),
                 "already mapped");
    EXPECT_DEATH(r.map(ChannelRef{0, 1}, ChannelRef{1, 0}),
                 "already mapped");
}

TEST(RoutingUnitDeath, DoubleFreePanics)
{
    RoutingUnit r(1, 2);
    const VcId v = r.allocInputVc(0);
    r.freeInputVc(0, v);
    EXPECT_DEATH(r.freeInputVc(0, v), "double free");
}

TEST(RoutingUnitDeath, UnmapUnmappedPanics)
{
    RoutingUnit r(1, 2);
    EXPECT_DEATH(r.unmap(ChannelRef{0, 0}), "no mapping");
}

} // namespace
} // namespace mmr
