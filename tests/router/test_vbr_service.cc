/**
 * @file
 * Behavioral tests for the §4.3 VBR service discipline at router
 * level: excess bandwidth served "completely servicing the excess
 * bandwidth of one connection before moving to the next one" in
 * priority order, and dynamic bandwidth renegotiation taking effect
 * mid-stream.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "router/departure_tap.hh"
#include "router/router.hh"
#include "sim/kernel.hh"

namespace mmr
{
namespace
{

RouterConfig
cfg()
{
    RouterConfig c;
    c.numPorts = 2;
    c.vcsPerPort = 8;
    c.vcBufferFlits = 32;
    c.roundFactorK = 8; // round = 64 cycles
    c.candidates = 4;
    c.seed = 2;
    return c;
}

struct Delivery
{
    Flit flit;
    Cycle when;
};

class VbrServiceTest : public ::testing::Test
{
  protected:
    VbrServiceTest()
        : router(cfg()),
          tap(router, [this](const MmrRouter::Departure &d, Cycle t) {
              deliveries.push_back(Delivery{d.flit, t});
          })
    {
        kernel.add(&router);
        kernel.add(&tap);
    }

    MmrRouter router;
    Kernel kernel;
    std::vector<Delivery> deliveries;
    DepartureTap tap;
};

TEST_F(VbrServiceTest, ExcessServedOneConnectionAtATime)
{
    // Two VBR connections, both with zero permanent share of the
    // moment (tiny perm, large peak), same input port and output.
    // Fill both queues; the excess service must drain the
    // higher-priority connection's backlog before touching the other.
    const double link = cfg().linkRateBps;
    const ChannelRef low =
        router.openVbr(0, 1, link / 64.0, link / 2.0, /*prio=*/1);
    const ChannelRef high =
        router.openVbr(0, 1, link / 64.0, link / 2.0, /*prio=*/5);
    ASSERT_TRUE(low.valid());
    ASSERT_TRUE(high.valid());
    const ConnId low_id = router.segment(low).id;
    const ConnId high_id = router.segment(high).id;

    for (int i = 0; i < 10; ++i) {
        Flit fl, fh;
        fl.seq = fh.seq = static_cast<std::uint32_t>(i);
        ASSERT_TRUE(router.inject(low, fl));
        ASSERT_TRUE(router.inject(high, fh));
    }
    kernel.run(64); // one full round

    // Both have 1 permanent cycle; beyond that, priority 5's excess
    // must be fully serviced first: among the first 12 departures at
    // most the single permanent flit belongs to `low` plus possibly
    // one boundary flit.
    ASSERT_GE(deliveries.size(), 12u);
    unsigned low_in_prefix = 0;
    for (int i = 0; i < 11; ++i)
        low_in_prefix += (deliveries[i].flit.conn == low_id);
    EXPECT_LE(low_in_prefix, 2u)
        << "low priority excess must wait for high priority's backlog";
    // And the high-priority stream's 10 flits all left in the prefix.
    unsigned high_total = 0;
    for (int i = 0; i < 12; ++i)
        high_total += (deliveries[i].flit.conn == high_id);
    EXPECT_GE(high_total, 9u);
}

TEST_F(VbrServiceTest, PriorityChangeRedirectsExcessService)
{
    const double link = cfg().linkRateBps;
    const ChannelRef a =
        router.openVbr(0, 1, link / 64.0, link / 2.0, /*prio=*/5);
    const ChannelRef b =
        router.openVbr(0, 1, link / 64.0, link / 2.0, /*prio=*/1);
    // Swap priorities before traffic flows (a control-word action).
    ASSERT_TRUE(router.setConnectionPriority(a, 1));
    ASSERT_TRUE(router.setConnectionPriority(b, 5));

    for (int i = 0; i < 8; ++i) {
        Flit fa, fb;
        fa.seq = fb.seq = static_cast<std::uint32_t>(i);
        ASSERT_TRUE(router.inject(a, fa));
        ASSERT_TRUE(router.inject(b, fb));
    }
    kernel.run(64);
    ASSERT_GE(deliveries.size(), 10u);
    unsigned b_in_prefix = 0;
    for (int i = 0; i < 9; ++i)
        b_in_prefix += (deliveries[i].flit.conn == router.segment(b).id);
    EXPECT_GE(b_in_prefix, 7u)
        << "after the swap, b holds the high priority";
}

TEST_F(VbrServiceTest, RenegotiationChangesServiceRateMidRun)
{
    // A CBR connection with a small reservation gets throttled to it;
    // renegotiating upward mid-run immediately widens the per-round
    // quota.
    const double link = cfg().linkRateBps;
    const unsigned round = cfg().cyclesPerRound(); // 64
    const ChannelRef id = router.openCbr(0, 1, 4.0 / round * link);
    ASSERT_TRUE(id.valid());
    ASSERT_EQ(router.segment(id).allocCycles, 4u);

    auto flood = [&] {
        for (int i = 0; i < 32; ++i) {
            Flit f;
            router.inject(id, f); // may hit the buffer limit: flooding
        }
    };

    flood();
    kernel.run(round);
    const std::size_t first_round = deliveries.size();
    EXPECT_LE(first_round, 5u) << "quota of 4/round binds (+pipeline)";

    ASSERT_TRUE(router.renegotiateBandwidth(id, 16.0 / round * link));
    flood();
    const std::size_t before = deliveries.size();
    kernel.run(round);
    const std::size_t second_round = deliveries.size() - before;
    EXPECT_GE(second_round, 14u);
    EXPECT_LE(second_round, 17u);
}

} // namespace
} // namespace mmr
