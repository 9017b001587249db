/**
 * @file
 * Unit and property tests for the per-input-link scheduler (§4.1,
 * §4.3): candidate eligibility, per-round quota enforcement, service
 * tiering, per-output candidate de-duplication, and the ranked-list
 * contract the switch schedulers rely on.
 */

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "router/link_sched.hh"

namespace mmr
{
namespace
{

class LinkSchedTest : public ::testing::Test
{
  protected:
    LinkSchedTest()
        : mem(16, 8), credits(4, 16, 2),
          sched(0, &mem, 4, PriorityPolicy::Biased, 32)
    {
        credits.setInfinite(true);
    }

    /** Bind a CBR VC with mapping and one queued flit. */
    void
    cbr(VcId v, PortId out, unsigned alloc, double ia, Cycle ready = 0)
    {
        mem.vc(v).bindCbr(100 + v, alloc, ia);
        mem.vc(v).setMapping(out, v);
        Flit f;
        f.readyTime = ready;
        ASSERT_TRUE(mem.deposit(v, f));
    }

    std::vector<Candidate>
    collect(Cycle now, unsigned max_c)
    {
        std::vector<Candidate> out;
        sched.collectCandidates(now, max_c, credits, out);
        return out;
    }

    VcMemory mem;
    CreditManager credits;
    LinkScheduler sched;
};

TEST_F(LinkSchedTest, NoFlitsNoCandidates)
{
    EXPECT_TRUE(collect(0, 8).empty());
}

TEST_F(LinkSchedTest, SingleReadyVcIsOffered)
{
    cbr(3, 2, 4, 50.0);
    const auto c = collect(10, 8);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0].in, 0u);
    EXPECT_EQ(c[0].vc, 3u);
    EXPECT_EQ(c[0].out, 2u);
    EXPECT_EQ(c[0].outVc, 3u);
    EXPECT_EQ(c[0].conn, 103u);
    EXPECT_EQ(c[0].tier, static_cast<int>(ServiceTier::Guaranteed));
}

TEST_F(LinkSchedTest, UnmappedOrUnboundVcsAreSkipped)
{
    // A bound but unmapped VC never becomes a candidate.
    mem.vc(1).bindCbr(50, 4, 10.0);
    Flit f;
    ASSERT_TRUE(mem.deposit(1, f));
    EXPECT_TRUE(collect(0, 8).empty());
}

TEST_F(LinkSchedTest, CreditExhaustionMasksChannel)
{
    credits.setInfinite(false);
    cbr(0, 1, 4, 50.0);
    // Drain the credits of the mapped output VC (1, 0).
    credits.consume(1, 0);
    credits.consume(1, 0);
    EXPECT_TRUE(collect(0, 8).empty());
    credits.replenish(1, 0);
    EXPECT_EQ(collect(1, 8).size(), 1u);
}

TEST_F(LinkSchedTest, PerOutputDeduplicationKeepsBest)
{
    // Two VCs bound for output 2; the older (higher-ratio) flit must
    // be the single candidate representing that output.
    cbr(0, 2, 4, 50.0, 20);
    cbr(1, 2, 4, 50.0, 0); // ready earlier -> higher biased priority
    const auto c = collect(30, 8);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0].vc, 1u);
}

TEST_F(LinkSchedTest, DistinctOutputsAllOffered)
{
    cbr(0, 0, 4, 50.0);
    cbr(1, 1, 4, 50.0);
    cbr(2, 2, 4, 50.0);
    cbr(3, 3, 4, 50.0);
    const auto c = collect(5, 8);
    EXPECT_EQ(c.size(), 4u);
}

TEST_F(LinkSchedTest, MaxCandidatesHonored)
{
    cbr(0, 0, 4, 50.0);
    cbr(1, 1, 4, 50.0);
    cbr(2, 2, 4, 50.0);
    cbr(3, 3, 4, 50.0);
    EXPECT_EQ(collect(5, 2).size(), 2u);
    EXPECT_EQ(collect(5, 1).size(), 1u);
}

TEST_F(LinkSchedTest, CandidatesSortedByPriorityWithinTier)
{
    cbr(0, 0, 4, 100.0, 0); // ratio at t=50: 0.5
    cbr(1, 1, 4, 25.0, 0);  // ratio at t=50: 2.0
    const auto c = collect(50, 8);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[0].vc, 1u) << "higher biased ratio first";
    EXPECT_GT(c[0].prio, c[1].prio);
}

TEST_F(LinkSchedTest, CbrQuotaEnforcedWithinRound)
{
    // Allocation of 2 cycles/round: after two grants the VC must
    // disappear from the candidate set until the round rolls.
    mem.vc(0).bindCbr(7, 2, 10.0);
    mem.vc(0).setMapping(1, 0);
    for (int i = 0; i < 4; ++i) {
        Flit f;
        ASSERT_TRUE(mem.deposit(0, f));
    }
    EXPECT_EQ(collect(0, 8).size(), 1u);
    mem.vc(0).noteServiced();
    EXPECT_EQ(collect(1, 8).size(), 1u);
    mem.vc(0).noteServiced();
    EXPECT_TRUE(collect(2, 8).empty()) << "allocation exhausted";
    // Round length is 32: at cycle 32 the quota resets.
    EXPECT_EQ(collect(32, 8).size(), 1u);
    EXPECT_EQ(sched.roundCount(), 1u);
}

TEST_F(LinkSchedTest, PendingGrantsCountAgainstQuotaAndQueue)
{
    cbr(0, 1, 1, 10.0);
    mem.vc(0).noteGrantIssued();
    EXPECT_TRUE(collect(0, 8).empty())
        << "the only flit is already granted";
}

TEST_F(LinkSchedTest, ControlOutranksStreams)
{
    cbr(0, 1, 4, 10.0, 0);
    mem.vc(5).bindControl(900);
    mem.vc(5).setMapping(2, 5);
    Flit f;
    ASSERT_TRUE(mem.deposit(5, f));
    const auto c = collect(100, 8);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[0].tier, static_cast<int>(ServiceTier::Control));
    EXPECT_EQ(c[0].vc, 5u);
}

TEST_F(LinkSchedTest, BestEffortRanksLast)
{
    mem.vc(4).bindBestEffort(800);
    mem.vc(4).setMapping(3, 4);
    Flit f;
    f.readyTime = 0;
    ASSERT_TRUE(mem.deposit(4, f));
    cbr(0, 1, 4, 10.0, 90);
    const auto c = collect(100, 8);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[1].tier, static_cast<int>(ServiceTier::BestEffort));
    EXPECT_EQ(c[1].vc, 4u)
        << "a long-waiting BE flit still ranks below guaranteed";
}

TEST_F(LinkSchedTest, VbrExcessServicedInPriorityOrderByConnection)
{
    // Two VBR channels past their permanent bandwidth: the one with
    // the higher user priority must come first, and the ordering key
    // must be stable (connection-based), not aging-based.
    auto add_vbr = [&](VcId v, PortId out, int prio, ConnId conn) {
        mem.vc(v).bindVbr(conn, 0, 8, 10.0, prio);
        mem.vc(v).setMapping(out, v);
        Flit f;
        f.readyTime = 0;
        ASSERT_TRUE(mem.deposit(v, f));
    };
    add_vbr(0, 0, 1, 500);
    add_vbr(1, 1, 3, 501);
    const auto c = collect(50, 8);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[0].conn, 501u) << "priority 3 beats priority 1";
    EXPECT_EQ(c[0].tier, static_cast<int>(ServiceTier::VbrExcess));
}

TEST_F(LinkSchedTest, EligibleMaskMatchesCandidates)
{
    cbr(0, 0, 4, 50.0);
    cbr(2, 1, 4, 50.0);
    mem.vc(5).bindCbr(77, 0, 10.0); // zero allocation: never eligible
    mem.vc(5).setMapping(2, 5);
    Flit f;
    ASSERT_TRUE(mem.deposit(5, f));

    const BitVector mask = sched.eligibleMask(0, credits);
    EXPECT_EQ(mask.setBits(), (std::vector<std::size_t>{0, 2}));
}

TEST_F(LinkSchedTest, RoundRolloverCatchesUpAfterGaps)
{
    cbr(0, 0, 1, 10.0);
    mem.vc(0).noteServiced();
    EXPECT_TRUE(collect(1, 8).empty());
    // Jump several rounds ahead: rollRoundIfNeeded must catch up.
    EXPECT_EQ(collect(100, 8).size(), 1u);
    EXPECT_EQ(sched.roundCount(), 3u); // rounds at 32, 64, 96
}

/**
 * Property: whatever mix of channels is eligible — CBR, VBR within and
 * beyond its permanent bandwidth, best effort and control, under
 * random credits and quotas — every list collectCandidates emits is
 * ranked best first by (tier, prio, tie) and names each output at most
 * once.  SwitchScheduler::scheduleInto relies on exactly this.
 */
TEST(LinkSchedProperty, ListsAreRankedAndNameEachOutputOnce)
{
    constexpr unsigned kPorts = 8;
    constexpr unsigned kVcs = 96;
    constexpr unsigned kDepth = 4;
    constexpr unsigned kRound = 32;
    const PriorityPolicy policies[] = {PriorityPolicy::Biased,
                                       PriorityPolicy::Fixed,
                                       PriorityPolicy::Age};
    const double inter_arrivals[] = {10.0, 20.0, 40.0};

    const auto ranked = [](const Candidate &a, const Candidate &b) {
        if (a.tier != b.tier)
            return a.tier > b.tier;
        if (a.prio != b.prio)
            return a.prio > b.prio;
        return a.tie >= b.tie;
    };

    std::size_t checked = 0;
    std::vector<bool> tiers_seen(6, false);
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        VcMemory mem(kVcs, kDepth);
        CreditManager credits(kPorts, kVcs, 2);
        LinkScheduler sched(0, &mem, kPorts, policies[seed % 3], kRound);

        auto deposit = [&](VcId v, Cycle now) {
            Flit f;
            f.readyTime = now >= 8 ? now - rng.below(8) : now;
            return mem.deposit(v, f);
        };
        for (VcId v = 0; v < kVcs; ++v) {
            VcState &vc = mem.vc(v);
            const auto conn = static_cast<ConnId>(1000 + v);
            const double ia = inter_arrivals[rng.below(3)];
            const auto kind = rng.below(6);
            if (kind == 0)
                continue; // free channel
            if (kind == 1) {
                vc.bindCbr(conn, static_cast<unsigned>(rng.below(6)), ia);
            } else if (kind == 2 || kind == 3) {
                // kind 3 has no permanent bandwidth: excess only.
                const auto perm = kind == 2
                                      ? 1 + static_cast<unsigned>(
                                                rng.below(4))
                                      : 0u;
                vc.bindVbr(conn, perm,
                           perm + static_cast<unsigned>(rng.below(4)), ia,
                           static_cast<int>(rng.below(4)));
            } else if (kind == 4) {
                vc.bindBestEffort(conn);
            } else {
                vc.bindControl(conn);
            }
            const auto out = static_cast<PortId>(rng.below(kPorts));
            vc.setMapping(out, v);
            vc.setTieBreak(rng.uniform());
            for (auto n = rng.below(kDepth + 1); n > 0; --n)
                ASSERT_TRUE(deposit(v, 0));
            for (auto n = rng.below(3); n > 0; --n)
                credits.consume(out, v);
            for (auto n = rng.below(3); n > 0; --n)
                vc.noteServiced();
        }

        std::vector<Candidate> cands;
        for (Cycle now = 0; now < 3 * kRound; ++now) {
            cands.clear();
            const auto max_c = 1 + static_cast<unsigned>(rng.below(8));
            sched.collectCandidates(now, max_c, credits, cands);
            ASSERT_LE(cands.size(), max_c);
            std::vector<bool> out_named(kPorts, false);
            for (std::size_t i = 0; i < cands.size(); ++i) {
                const Candidate &c = cands[i];
                ASSERT_EQ(c.in, 0u);
                ASSERT_LT(c.out, kPorts);
                ASSERT_FALSE(out_named[c.out])
                    << "output " << c.out << " named twice at cycle "
                    << now << ", seed " << seed;
                out_named[c.out] = true;
                tiers_seen[static_cast<std::size_t>(c.tier)] = true;
                if (i > 0) {
                    ASSERT_TRUE(ranked(cands[i - 1], c))
                        << "candidate " << i << " outranks its "
                        << "predecessor at cycle " << now << ", seed "
                        << seed;
                }
            }
            checked += cands.size();

            // Serve the best candidate as the router would (grant,
            // pop, charge the round quota) and let flits, credits and
            // quotas move before the next cycle.
            if (!cands.empty()) {
                const Candidate &best = cands.front();
                VcState &vc = mem.vc(best.vc);
                vc.noteGrantIssued(now);
                vc.pop();
                vc.noteGrantApplied();
                vc.noteServiced();
                mem.noteDrained(best.vc);
                credits.consume(best.out, best.outVc);
            }
            const auto v = static_cast<VcId>(rng.below(kVcs));
            if (mem.vc(v).bound() && mem.vc(v).depth() < kDepth) {
                ASSERT_TRUE(deposit(v, now));
            }
            const auto r = static_cast<VcId>(rng.below(kVcs));
            const PortId r_out = mem.vc(r).outPort();
            if (mem.vc(r).mapped() && credits.credits(r_out, r) < 2)
                credits.replenish(r_out, r);
        }
    }
    EXPECT_GT(checked, 1000u);
    for (const ServiceTier t :
         {ServiceTier::BestEffort, ServiceTier::VbrExcess,
          ServiceTier::VbrPermanent, ServiceTier::Guaranteed,
          ServiceTier::Control}) {
        EXPECT_TRUE(tiers_seen[static_cast<std::size_t>(t)])
            << "tier " << static_cast<int>(t) << " never offered";
    }
}

} // namespace
} // namespace mmr
