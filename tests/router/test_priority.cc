/**
 * @file
 * Unit tests for the priority policies and service tiers (§4.4, §5.1).
 */

#include <gtest/gtest.h>

#include "router/priority.hh"
#include "router/vc_memory.hh"

namespace mmr
{
namespace
{

/** Bind @p vc (a VC of some VcMemory) to CBR and buffer one flit. */
VcState &
cbrVc(VcState &vc, double inter_arrival, Cycle ready)
{
    vc.bindCbr(1, 4, inter_arrival);
    Flit f;
    f.readyTime = ready;
    vc.push(f);
    return vc;
}

TEST(Priority, BiasedGrowsWithWaitingTime)
{
    VcMemory mem(1, 4);
    VcState &vc = cbrVc(mem.vc(0), 100.0, 10);
    const double p1 = headPriority(PriorityPolicy::Biased, vc, 20);
    const double p2 = headPriority(PriorityPolicy::Biased, vc, 60);
    EXPECT_DOUBLE_EQ(p1, 0.1);
    EXPECT_DOUBLE_EQ(p2, 0.5);
    EXPECT_GT(p2, p1);
}

TEST(Priority, BiasedScalesWithConnectionSpeed)
{
    // "High speed connections clearly have their priorities grow at a
    // faster rate": same wait, smaller inter-arrival, higher ratio.
    VcMemory mem(2, 4);
    VcState &fast = cbrVc(mem.vc(0), 10.0, 0);
    VcState &slow = cbrVc(mem.vc(1), 1000.0, 0);
    EXPECT_GT(headPriority(PriorityPolicy::Biased, fast, 50),
              headPriority(PriorityPolicy::Biased, slow, 50));
}

TEST(Priority, FixedIsConstantOverTime)
{
    VcMemory mem(1, 4);
    VcState &vc = cbrVc(mem.vc(0), 100.0, 0);
    const double p1 = headPriority(PriorityPolicy::Fixed, vc, 10);
    const double p2 = headPriority(PriorityPolicy::Fixed, vc, 10000);
    EXPECT_DOUBLE_EQ(p1, p2);
    EXPECT_DOUBLE_EQ(p1, 0.01);
}

TEST(Priority, FixedOrdersByRate)
{
    VcMemory mem(2, 4);
    VcState &fast = cbrVc(mem.vc(0), 10.0, 0);
    VcState &slow = cbrVc(mem.vc(1), 1000.0, 0);
    EXPECT_GT(headPriority(PriorityPolicy::Fixed, fast, 0),
              headPriority(PriorityPolicy::Fixed, slow, 0));
}

TEST(Priority, AgeIsRawWait)
{
    VcMemory mem(1, 4);
    VcState &vc = cbrVc(mem.vc(0), 100.0, 5);
    EXPECT_DOUBLE_EQ(headPriority(PriorityPolicy::Age, vc, 25), 20.0);
}

TEST(Priority, ClockBeforeReadyClampsToZero)
{
    VcMemory mem(1, 4);
    VcState &vc = cbrVc(mem.vc(0), 100.0, 50);
    EXPECT_DOUBLE_EQ(headPriority(PriorityPolicy::Biased, vc, 10), 0.0);
    EXPECT_DOUBLE_EQ(headPriority(PriorityPolicy::Age, vc, 10), 0.0);
}

TEST(Priority, ZeroInterArrivalFallsBackToAge)
{
    VcMemory mem(1, 4);
    VcState &vc = mem.vc(0);
    vc.bindBestEffort(1);
    Flit f;
    f.readyTime = 0;
    vc.push(f);
    EXPECT_DOUBLE_EQ(headPriority(PriorityPolicy::Biased, vc, 7), 7.0);
    EXPECT_DOUBLE_EQ(headPriority(PriorityPolicy::Fixed, vc, 7), 0.0);
}

TEST(ServiceTier, OrderingMatchesSection43)
{
    VcState ctl, cbr, be;
    ctl.bindControl(1);
    cbr.bindCbr(2, 4, 10.0);
    be.bindBestEffort(3);
    EXPECT_EQ(serviceTier(ctl), ServiceTier::Control);
    EXPECT_EQ(serviceTier(cbr), ServiceTier::Guaranteed);
    EXPECT_EQ(serviceTier(be), ServiceTier::BestEffort);
    EXPECT_GT(static_cast<int>(ServiceTier::Control),
              static_cast<int>(ServiceTier::Guaranteed));
    EXPECT_GT(static_cast<int>(ServiceTier::Guaranteed),
              static_cast<int>(ServiceTier::VbrPermanent))
        << "§4.3: CBR cycles are assigned before VBR permanent bw";
    EXPECT_GT(static_cast<int>(ServiceTier::VbrPermanent),
              static_cast<int>(ServiceTier::VbrExcess));
    EXPECT_GT(static_cast<int>(ServiceTier::VbrExcess),
              static_cast<int>(ServiceTier::BestEffort));
}

TEST(ServiceTier, VbrDemotesToExcessAfterPermanentBandwidth)
{
    VcState vbr;
    vbr.bindVbr(1, 2, 5, 10.0, 0);
    // Within permanent bandwidth: the VBR-permanent tier.
    EXPECT_EQ(serviceTier(vbr), ServiceTier::VbrPermanent);
    vbr.noteServiced();
    EXPECT_EQ(serviceTier(vbr), ServiceTier::VbrPermanent);
    vbr.noteServiced();
    // Permanent exhausted: excess tier up to the peak.
    EXPECT_EQ(serviceTier(vbr), ServiceTier::VbrExcess);
    // A new round restores the permanent tier.
    vbr.newRound();
    EXPECT_EQ(serviceTier(vbr), ServiceTier::VbrPermanent);
}

TEST(ServiceTier, PendingGrantsCountAgainstPermanent)
{
    VcState vbr;
    vbr.bindVbr(1, 1, 5, 10.0, 0);
    vbr.noteGrantIssued();
    EXPECT_EQ(serviceTier(vbr), ServiceTier::VbrExcess)
        << "an in-flight grant already consumes the permanent slot";
}

TEST(Priority, PolicyNames)
{
    EXPECT_EQ(to_string(PriorityPolicy::Biased), "biased");
    EXPECT_EQ(to_string(PriorityPolicy::Fixed), "fixed");
    EXPECT_EQ(to_string(PriorityPolicy::Age), "age");
}

} // namespace
} // namespace mmr
