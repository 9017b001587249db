/**
 * @file
 * Unit tests for the Routing and Arbitration Unit (§3.5): its VC
 * pools.
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

TEST(RoutingUnitDeath, DoubleFreePanics)
{
    RoutingUnit r(1, 2);
    const VcId v = r.allocInputVc(0);
    r.freeInputVc(0, v);
    EXPECT_DEATH(r.freeInputVc(0, v), "double free");
}

} // namespace
} // namespace mmr
