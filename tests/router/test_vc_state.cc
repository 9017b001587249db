/**
 * @file
 * Unit tests for per-VC scheduling state (§3.2, §4.3).
 */

#include <gtest/gtest.h>

#include "router/vc_memory.hh"
#include "router/vc_state.hh"

namespace mmr
{
namespace
{

Flit
makeFlit(std::uint32_t seq)
{
    Flit f;
    f.seq = seq;
    return f;
}

TEST(VcState, StartsUnbound)
{
    VcState vc;
    EXPECT_FALSE(vc.bound());
    EXPECT_FALSE(vc.mapped());
    EXPECT_TRUE(vc.empty());
    EXPECT_EQ(vc.pendingGrants(), 0u);
}

TEST(VcState, CbrBindSetsState)
{
    VcState vc;
    vc.bindCbr(7, 12, 100.0);
    EXPECT_TRUE(vc.bound());
    EXPECT_EQ(vc.conn(), 7u);
    EXPECT_EQ(vc.trafficClass(), TrafficClass::CBR);
    EXPECT_EQ(vc.allocCycles(), 12u);
    EXPECT_DOUBLE_EQ(vc.interArrival(), 100.0);
    EXPECT_EQ(vc.quotaThisRound(), 12u);
}

TEST(VcState, VbrBindSetsState)
{
    VcState vc;
    vc.bindVbr(3, 4, 10, 50.0, 2);
    EXPECT_EQ(vc.trafficClass(), TrafficClass::VBR);
    EXPECT_EQ(vc.permCycles(), 4u);
    EXPECT_EQ(vc.peakCycles(), 10u);
    EXPECT_EQ(vc.userPriority(), 2);
    EXPECT_EQ(vc.quotaThisRound(), 10u);
}

TEST(VcState, BestEffortAndControlHaveNoQuota)
{
    VcState be, ctl;
    be.bindBestEffort(1);
    ctl.bindControl(2);
    EXPECT_EQ(be.quotaThisRound(), ~0u);
    EXPECT_EQ(ctl.quotaThisRound(), ~0u);
}

TEST(VcState, FifoOrderPreserved)
{
    VcMemory mem(1, 8);
    VcState &vc = mem.vc(0);
    vc.bindBestEffort(1);
    for (std::uint32_t i = 0; i < 5; ++i)
        vc.push(makeFlit(i));
    EXPECT_EQ(vc.depth(), 5u);
    for (std::uint32_t i = 0; i < 5; ++i) {
        EXPECT_EQ(vc.head().seq, i);
        EXPECT_EQ(vc.pop().seq, i);
    }
    EXPECT_TRUE(vc.empty());
}

TEST(VcState, PendingGrantsTrackUngrantedFlits)
{
    VcMemory mem(1, 8);
    VcState &vc = mem.vc(0);
    vc.bindCbr(1, 4, 10.0);
    vc.push(makeFlit(0));
    EXPECT_TRUE(vc.hasUngrantedFlit());
    EXPECT_EQ(vc.ungrantedHead().seq, 0u);
    vc.noteGrantIssued();
    EXPECT_FALSE(vc.hasUngrantedFlit());
    vc.push(makeFlit(1));
    EXPECT_TRUE(vc.hasUngrantedFlit());
    EXPECT_EQ(vc.ungrantedHead().seq, 1u)
        << "the granted head is no longer offerable";
    vc.pop();
    vc.noteGrantApplied();
    EXPECT_EQ(vc.pendingGrants(), 0u);
    EXPECT_TRUE(vc.hasUngrantedFlit());
}

TEST(VcState, RoundAccounting)
{
    VcState vc;
    vc.bindCbr(1, 2, 10.0);
    vc.noteServiced();
    vc.noteServiced();
    EXPECT_EQ(vc.serviced(), 2u);
    vc.newRound();
    EXPECT_EQ(vc.serviced(), 0u);
}

TEST(VcState, MappingLifecycle)
{
    VcState vc;
    vc.bindCbr(1, 1, 10.0);
    EXPECT_FALSE(vc.mapped());
    vc.setMapping(3, 17);
    EXPECT_TRUE(vc.mapped());
    EXPECT_EQ(vc.outPort(), 3u);
    EXPECT_EQ(vc.outVc(), 17u);
}

TEST(VcState, ReleaseRestoresFreshState)
{
    VcState vc;
    vc.bindVbr(9, 2, 4, 25.0, 1);
    vc.setMapping(1, 2);
    vc.setReleaseWhenEmpty(true);
    vc.release();
    EXPECT_FALSE(vc.bound());
    EXPECT_FALSE(vc.mapped());
    EXPECT_EQ(vc.permCycles(), 0u);
    EXPECT_EQ(vc.userPriority(), 0);
    EXPECT_FALSE(vc.releaseWhenEmpty());
    // Reusable for a different class.
    vc.bindControl(11);
    EXPECT_EQ(vc.trafficClass(), TrafficClass::Control);
}

TEST(VcState, DynamicUpdates)
{
    VcState vc;
    vc.bindCbr(1, 2, 100.0);
    vc.setCbrAlloc(5);
    vc.setInterArrival(40.0);
    EXPECT_EQ(vc.allocCycles(), 5u);
    EXPECT_DOUBLE_EQ(vc.interArrival(), 40.0);

    VcState vbr;
    vbr.bindVbr(2, 2, 4, 10.0, 0);
    vbr.setVbrAlloc(3, 6);
    vbr.setUserPriority(7);
    EXPECT_EQ(vbr.permCycles(), 3u);
    EXPECT_EQ(vbr.peakCycles(), 6u);
    EXPECT_EQ(vbr.userPriority(), 7);
}

TEST(VcStateDeath, DoubleBindPanics)
{
    VcState vc;
    vc.bindCbr(1, 1, 10.0);
    EXPECT_DEATH(vc.bindCbr(2, 1, 10.0), "already-bound");
}

TEST(VcStateDeath, ReleaseWithFlitsPanics)
{
    VcMemory mem(1, 8);
    VcState &vc = mem.vc(0);
    vc.bindBestEffort(1);
    vc.push(makeFlit(0));
    EXPECT_DEATH(vc.release(), "buffered flits");
}

TEST(VcStateDeath, PopEmptyPanics)
{
    VcState vc;
    vc.bindBestEffort(1);
    EXPECT_DEATH(vc.pop(), "empty");
}

TEST(VcStateDeath, PopUnboundPanics)
{
    VcState vc;
    EXPECT_DEATH(vc.pop(), "unbound");
}

TEST(VcStateDeath, HeadEmptyPanics)
{
    VcState vc;
    vc.bindCbr(1, 1, 10.0);
    EXPECT_DEATH(vc.head(), "empty");
}

TEST(VcStateDeath, HeadUnboundPanics)
{
    VcState vc;
    EXPECT_DEATH(vc.head(), "unbound");
}

TEST(VcStateDeath, PushUnboundPanics)
{
    VcState vc;
    EXPECT_DEATH(vc.push(makeFlit(3)), "unbound");
}

TEST(VcStateDeath, VbrPeakBelowPermPanics)
{
    VcState vc;
    EXPECT_DEATH(vc.bindVbr(1, 10, 5, 1.0, 0), "peak below");
}

} // namespace
} // namespace mmr
