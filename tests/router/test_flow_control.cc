/**
 * @file
 * Unit tests for credit-based flow control and link control words
 * (§3.1, §4.3).
 */

#include <gtest/gtest.h>

#include "router/flow_control.hh"

namespace mmr
{
namespace
{

TEST(Credits, StartAtInitialValue)
{
    CreditManager cm(2, 4, 3);
    for (PortId p = 0; p < 2; ++p)
        for (VcId v = 0; v < 4; ++v)
            EXPECT_EQ(cm.credits(p, v), 3u);
}

TEST(Credits, ConsumeReplenishCycle)
{
    CreditManager cm(1, 1, 2);
    EXPECT_TRUE(cm.hasCredit(0, 0));
    cm.consume(0, 0);
    cm.consume(0, 0);
    EXPECT_FALSE(cm.hasCredit(0, 0));
    cm.replenish(0, 0);
    EXPECT_TRUE(cm.hasCredit(0, 0));
    EXPECT_EQ(cm.credits(0, 0), 1u);
}

TEST(Credits, VcsAreIndependent)
{
    CreditManager cm(1, 2, 1);
    cm.consume(0, 0);
    EXPECT_FALSE(cm.hasCredit(0, 0));
    EXPECT_TRUE(cm.hasCredit(0, 1));
}

TEST(Credits, InfiniteModeNeverBlocks)
{
    CreditManager cm(1, 1, 1);
    cm.setInfinite(true);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(cm.hasCredit(0, 0));
        cm.consume(0, 0);
    }
    EXPECT_EQ(cm.credits(0, 0), 1u) << "infinite mode leaves counters";
}

TEST(Credits, LedgerCountsConsumeAndReplenish)
{
    CreditManager cm(1, 2, 3);
    cm.consume(0, 0);
    cm.consume(0, 0);
    cm.consume(0, 1);
    cm.replenish(0, 0);
    EXPECT_EQ(cm.consumedCount(), 3u);
    EXPECT_EQ(cm.replenishedCount(), 1u);
    cm.audit(); // outstanding (2) == consumed (3) - replenished (1)
}

TEST(Credits, AuditWithHonestCensusPasses)
{
    CreditManager cm(2, 2, 3);
    cm.consume(1, 0);
    cm.consume(1, 0);
    cm.audit([](PortId p, VcId v) -> unsigned {
        return (p == 1 && v == 0) ? 2u : 0u;
    });
}

TEST(CreditsDeath, AuditCatchesLyingCensus)
{
    CreditManager cm(1, 1, 3);
    cm.consume(0, 0);
    EXPECT_DEATH(cm.audit([](PortId, VcId) { return 3u; }),
                 "credit-ledger");
}

TEST(CreditsDeath, OverConsumePanics)
{
    CreditManager cm(1, 1, 1);
    cm.consume(0, 0);
    EXPECT_DEATH(cm.consume(0, 0), "credit");
}

TEST(CreditsDeath, OverReplenishPanics)
{
    CreditManager cm(1, 1, 1);
    EXPECT_DEATH(cm.replenish(0, 0), "overflow");
}

TEST(CreditsDeath, OutOfRangePanics)
{
    CreditManager cm(2, 2, 1);
    EXPECT_DEATH(cm.credits(2, 0), "out of range");
    EXPECT_DEATH(cm.credits(0, 2), "out of range");
}

TEST(ControlWord, EncodeDecodeRoundTrip)
{
    for (ControlOp op : {ControlOp::SetBandwidth, ControlOp::SetPriority,
                         ControlOp::Teardown, ControlOp::Probe,
                         ControlOp::Ack}) {
        ControlWord w;
        w.op = op;
        w.conn = 0x123456;
        w.arg = 42.5;
        const ControlWord back = ControlWord::decode(w.encode());
        EXPECT_TRUE(back == w) << "op " << static_cast<int>(op);
    }
}

TEST(ControlWord, NegativeArgRoundTrips)
{
    ControlWord w;
    w.op = ControlOp::SetPriority;
    w.conn = 7;
    w.arg = -3.25;
    EXPECT_TRUE(ControlWord::decode(w.encode()) == w);
}

TEST(ControlWord, FractionalPrecision)
{
    ControlWord w;
    w.op = ControlOp::SetBandwidth;
    w.conn = 1;
    w.arg = 1.54; // Mb/s — must survive 16.16 fixed point
    const ControlWord back = ControlWord::decode(w.encode());
    EXPECT_NEAR(back.arg, 1.54, 1.0 / 65536.0);
}

TEST(ControlWord, ArgClampsToFixedPointRange)
{
    ControlWord w;
    w.op = ControlOp::SetBandwidth;
    w.conn = 1;
    w.arg = 1e9; // out of 16.16 range
    const ControlWord back = ControlWord::decode(w.encode());
    EXPECT_NEAR(back.arg, 32767.0, 1.0);
}

TEST(ControlWord, DistinctEncodings)
{
    ControlWord a, b;
    a.op = b.op = ControlOp::Ack;
    a.conn = 1;
    b.conn = 2;
    EXPECT_NE(a.encode(), b.encode());
}

} // namespace
} // namespace mmr
