/**
 * @file
 * End-to-end property tests: for every scheduler kind and candidate
 * count, a loaded router must conserve flits, keep per-connection
 * order, respect CBR round quotas, and carry the offered load below
 * saturation.  These are the invariants behind the §5 study.  A
 * last property holds the router's segment table to a map reference
 * under random install/remove/renegotiate churn.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <tuple>
#include <vector>

#include "harness/single_router.hh"
#include "sim/invariant.hh"
#include "traffic/rates.hh"

namespace mmr
{
namespace
{

using Param = std::tuple<SchedulerKind, unsigned>; // scheduler, candidates

class SchedulerProperty : public ::testing::TestWithParam<Param>
{
};

TEST_P(SchedulerProperty, CarriesModerateLoadWithFiniteDelay)
{
    const auto [kind, candidates] = GetParam();
    ExperimentConfig cfg;
    cfg.router.numPorts = 4;
    cfg.router.vcsPerPort = 32;
    cfg.router.candidates = candidates;
    cfg.router.scheduler = kind;
    cfg.offeredLoad = 0.5;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 10000;
    cfg.seed = 11;

    const ExperimentResult r = runSingleRouter(cfg);
    EXPECT_GT(r.connections, 0u);
    EXPECT_NEAR(r.achievedLoad, 0.5, 0.05);
    EXPECT_EQ(r.injectionRejects, 0u)
        << "no buffer overflow below saturation";
    EXPECT_GT(r.flitsDelivered, 0u);
    // Utilization tracks carried load in steady state.
    EXPECT_NEAR(r.utilization, r.achievedLoad, 0.06);
    EXPECT_GT(r.meanDelayCycles, 0.0);
    EXPECT_LT(r.meanDelayCycles, 5000.0);
    EXPECT_GE(r.meanJitterCycles, 0.0);
}

TEST_P(SchedulerProperty, DeterministicForFixedSeed)
{
    const auto [kind, candidates] = GetParam();
    ExperimentConfig cfg;
    cfg.router.numPorts = 4;
    cfg.router.vcsPerPort = 32;
    cfg.router.candidates = candidates;
    cfg.router.scheduler = kind;
    cfg.offeredLoad = 0.4;
    cfg.warmupCycles = 500;
    cfg.measureCycles = 3000;
    cfg.seed = 21;

    const ExperimentResult a = runSingleRouter(cfg);
    const ExperimentResult b = runSingleRouter(cfg);
    EXPECT_EQ(a.connections, b.connections);
    EXPECT_EQ(a.flitsDelivered, b.flitsDelivered);
    EXPECT_DOUBLE_EQ(a.meanDelayCycles, b.meanDelayCycles);
    EXPECT_DOUBLE_EQ(a.meanJitterCycles, b.meanJitterCycles);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndCandidates, SchedulerProperty,
    ::testing::Combine(
        ::testing::Values(SchedulerKind::BiasedPriority,
                          SchedulerKind::FixedPriority,
                          SchedulerKind::AgePriority,
                          SchedulerKind::OutputDriven,
                          SchedulerKind::Autonet, SchedulerKind::Islip,
                          SchedulerKind::Perfect),
        ::testing::Values(1u, 2u, 4u)),
    [](const ::testing::TestParamInfo<Param> &pinfo) {
        std::string name = to_string(std::get<0>(pinfo.param)) + "_c" +
                           std::to_string(std::get<1>(pinfo.param));
        for (char &c : name)
            if (c == '-')
                c = '_'; // gtest test names reject hyphens
        return name;
    });

/** The §4.3 guarantee: a CBR connection never exceeds its per-round
 * allocation, even when its source misbehaves (floods). */
TEST(CbrQuotaProperty, MisbehavingSourceIsThrottled)
{
    RouterConfig rc;
    rc.numPorts = 2;
    rc.vcsPerPort = 8;
    rc.vcBufferFlits = 64;
    rc.roundFactorK = 4; // round = 32 cycles
    rc.candidates = 4;

    MetricsRecorder metrics;
    MmrRouter router(rc, &metrics);
    std::vector<Cycle> departures;
    router.setSink([&](PortId, VcId, const Flit &, Cycle t) {
        departures.push_back(t);
    });

    // Reserve ~4 cycles/round but flood every cycle.
    const unsigned round = rc.cyclesPerRound();
    const double rate = 4.0 / round * rc.linkRateBps;
    const ChannelRef id = router.openCbr(0, 1, rate);
    ASSERT_TRUE(id.valid());
    const unsigned alloc = router.segment(id).allocCycles;

    Kernel kernel;
    kernel.add(&router);
    for (Cycle t = 0; t < 10 * round; ++t) {
        Flit f;
        f.readyTime = t;
        router.inject(id, f); // may be rejected when full: flooding
        kernel.step();
    }

    // Count departures per round: never above the allocation.
    std::map<Cycle, unsigned> per_round;
    for (Cycle t : departures)
        per_round[t / round]++;
    ASSERT_FALSE(per_round.empty());
    for (const auto &[round_idx, n] : per_round)
        EXPECT_LE(n, alloc) << "round " << round_idx
                            << " exceeded the reservation";
}

/** Work conservation: with a single backlogged connection and no
 * competing traffic, the link never idles below the quota. */
TEST(CbrQuotaProperty, AllocationIsAlsoDeliveredWhenBacklogged)
{
    RouterConfig rc;
    rc.numPorts = 2;
    rc.vcsPerPort = 8;
    rc.vcBufferFlits = 64;
    rc.roundFactorK = 4;
    rc.candidates = 4;

    MmrRouter router(rc);
    std::vector<Cycle> departures;
    router.setSink([&](PortId, VcId, const Flit &, Cycle t) {
        departures.push_back(t);
    });

    const unsigned round = rc.cyclesPerRound();
    const double rate = 8.0 / round * rc.linkRateBps;
    const ChannelRef id = router.openCbr(0, 1, rate);
    const unsigned alloc = router.segment(id).allocCycles;

    Kernel kernel;
    kernel.add(&router);
    for (Cycle t = 0; t < 8 * round; ++t) {
        Flit f;
        f.readyTime = t;
        router.inject(id, f);
        kernel.step();
    }
    std::map<Cycle, unsigned> per_round;
    for (Cycle t : departures)
        per_round[t / round]++;
    // Interior rounds deliver exactly the allocation.
    for (unsigned r = 1; r + 1 < 8; ++r)
        EXPECT_EQ(per_round[r], alloc) << "round " << r;
}

/** Field-by-field equality of two installed segments. */
void
expectSameSegment(const SegmentParams &got, const SegmentParams &want)
{
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.klass, want.klass);
    EXPECT_EQ(got.in, want.in);
    EXPECT_EQ(got.inVc, want.inVc);
    EXPECT_EQ(got.out, want.out);
    EXPECT_EQ(got.outVc, want.outVc);
    EXPECT_EQ(got.allocCycles, want.allocCycles);
    EXPECT_EQ(got.permCycles, want.permCycles);
    EXPECT_EQ(got.peakCycles, want.peakCycles);
    EXPECT_EQ(got.interArrival, want.interArrival);
    EXPECT_EQ(got.priority, want.priority);
    EXPECT_EQ(got.releaseWhenEmpty, want.releaseWhenEmpty);
    EXPECT_EQ(got.ownsInputVc, want.ownsInputVc);
    EXPECT_EQ(got.ownsOutputVc, want.ownsOutputVc);
}

/**
 * A segment lives in its input VC, and the live-segment list the
 * admission-ledger audit walks is dense with swap-remove: removing a
 * segment from the middle moves the last one into its entry.  Random
 * install (admission charged and VCs allocated as the network does),
 * remove-anywhere and CBR renegotiate sequences are checked against a
 * std::map keyed by input channel after every operation: every
 * channel in the map reads back its own segment, every other channel
 * reads none, the count matches, and the admission-ledger audit holds.
 */
TEST(SegmentTableProperty, MatchesAMapUnderInstallRemoveRenegotiate)
{
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE(seed);
        RouterConfig rc;
        rc.numPorts = 4;
        rc.vcsPerPort = 8;
        rc.roundFactorK = 4;
        MmrRouter router(rc);
        InvariantChecker chk;
        router.registerInvariants(chk);
        Rng rng(seed);
        const unsigned round = rc.cyclesPerRound();

        using Key = std::pair<PortId, VcId>;
        std::map<Key, SegmentParams> ref;
        std::size_t removals = 0;
        ConnId next_id = 100;
        const auto pick = [&] {
            auto it = ref.begin();
            std::advance(it, static_cast<long>(rng.below(ref.size())));
            return it;
        };

        for (Cycle op = 0; op < 1500; ++op) {
            const std::uint64_t kind = ref.empty() ? 0 : rng.below(3);
            if (kind == 0) {
                SegmentParams p;
                p.id = next_id;
                next_id += 1 + static_cast<ConnId>(rng.below(7));
                p.in = static_cast<PortId>(rng.below(rc.numPorts));
                p.out = static_cast<PortId>(rng.below(rc.numPorts));
                p.klass = static_cast<TrafficClass>(rng.below(3));
                bool admitted = true;
                if (p.klass == TrafficClass::CBR) {
                    p.allocCycles = 1 + static_cast<unsigned>(rng.below(6));
                    p.interArrival = double(round) / p.allocCycles;
                    admitted = router.admission().tryAdmitCbr(
                        p.out, p.allocCycles);
                } else if (p.klass == TrafficClass::VBR) {
                    p.permCycles = 1 + static_cast<unsigned>(rng.below(4));
                    p.peakCycles =
                        p.permCycles + static_cast<unsigned>(rng.below(4));
                    p.interArrival = double(round) / p.permCycles;
                    p.priority = static_cast<int>(rng.below(4));
                    admitted = router.admission().tryAdmitVbr(
                        p.out, p.permCycles, p.peakCycles);
                }
                if (!admitted)
                    continue;
                p.inVc = router.routing().allocInputVc(p.in);
                p.outVc = router.routing().allocOutputVc(p.out);
                if (p.inVc == kInvalidVc || p.outVc == kInvalidVc) {
                    if (p.inVc != kInvalidVc)
                        router.routing().freeInputVc(p.in, p.inVc);
                    if (p.outVc != kInvalidVc)
                        router.routing().freeOutputVc(p.out, p.outVc);
                    if (p.klass == TrafficClass::CBR)
                        router.admission().releaseCbr(p.out,
                                                      p.allocCycles);
                    else if (p.klass == TrafficClass::VBR)
                        router.admission().releaseVbr(
                            p.out, p.permCycles, p.peakCycles);
                    continue;
                }
                ASSERT_TRUE(router.installSegment(p));
                ref[Key{p.in, p.inVc}] = p;
            } else if (kind == 1) {
                const auto it = pick();
                ASSERT_TRUE(router.removeSegment(
                    ChannelRef{it->first.first, it->first.second}));
                ++removals;
                ref.erase(it);
            } else {
                SegmentParams &p = pick()->second;
                const double rate = rng.uniform(0.01, 0.3) * rc.linkRateBps;
                const bool ok = router.renegotiateBandwidth(
                    ChannelRef{p.in, p.inVc}, rate);
                if (p.klass != TrafficClass::CBR) {
                    EXPECT_FALSE(ok);
                } else if (ok) {
                    p.allocCycles =
                        cyclesPerRound(rate, rc.linkRateBps, round);
                    p.interArrival =
                        interArrivalCycles(rate, rc.linkRateBps);
                }
            }

            ASSERT_EQ(router.connectionCount(), ref.size()) << "op " << op;
            for (PortId in = 0; in < rc.numPorts; ++in) {
                for (VcId vc = 0; vc < rc.vcsPerPort; ++vc) {
                    const SegmentParams got =
                        router.segment(ChannelRef{in, vc});
                    const auto want = ref.find(Key{in, vc});
                    if (want == ref.end()) {
                        ASSERT_EQ(got.id, kInvalidConn)
                            << "op " << op << " channel " << in << ","
                            << vc;
                    } else {
                        expectSameSegment(got, want->second);
                    }
                }
            }
            chk.run("admission-ledger", op);
        }
        EXPECT_GT(removals, 100u) << "the churn removed little";
    }
}

} // namespace
} // namespace mmr
