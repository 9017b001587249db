/**
 * @file
 * Unit and property tests for the switch scheduling algorithms (§4.4):
 * matching legality, priority preference, augmentation to maximum
 * matchings and the perfect-switch semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "base/rng.hh"
#include "router/switch_sched.hh"

namespace mmr
{
namespace
{

Candidate
cand(PortId in, PortId out, double prio,
     int tier = static_cast<int>(ServiceTier::Guaranteed))
{
    Candidate c;
    c.in = in;
    c.vc = in; // arbitrary distinct vc
    c.out = out;
    c.outVc = 0;
    c.conn = in * 100 + out;
    c.tier = tier;
    c.prio = prio;
    c.tie = 0.5;
    return c;
}

std::vector<std::vector<Candidate>>
perInput(unsigned ports, std::initializer_list<Candidate> cs)
{
    std::vector<std::vector<Candidate>> v(ports);
    for (const Candidate &c : cs)
        v[c.in].push_back(c);
    return v;
}

bool
contains(const Matching &m, PortId in, PortId out)
{
    return std::any_of(m.begin(), m.end(), [&](const Candidate &c) {
        return c.in == in && c.out == out;
    });
}

TEST(GreedyPriority, SimpleConflictGoesToHigherPriority)
{
    GreedyPriorityScheduler s(4);
    Rng rng(1);
    // Both inputs want output 0; input 1 has the higher priority and
    // input 0 has no alternative.
    auto in = perInput(4, {cand(0, 0, 1.0), cand(1, 0, 2.0)});
    const Matching m = s.schedule(in, rng);
    ASSERT_TRUE(SwitchScheduler::validate(m, 4, false));
    ASSERT_EQ(m.size(), 1u);
    EXPECT_EQ(m[0].in, 1u);
}

TEST(GreedyPriority, AugmentationFindsMaximumMatching)
{
    // Input 0 can use outputs {0, 1}; input 1 can only use {0}.
    // Input 0 has the higher priority on output 0 — a purely greedy
    // arbiter would give it output 0 and leave input 1 stranded.  The
    // augmenting arbiter must re-route input 0 to output 1 so both
    // transmit.
    GreedyPriorityScheduler s(2);
    Rng rng(2);
    auto in = perInput(
        2, {cand(0, 0, 9.0), cand(0, 1, 1.0), cand(1, 0, 0.5)});
    const Matching m = s.schedule(in, rng);
    ASSERT_TRUE(SwitchScheduler::validate(m, 2, false));
    EXPECT_EQ(m.size(), 2u);
    EXPECT_TRUE(contains(m, 0, 1));
    EXPECT_TRUE(contains(m, 1, 0));
}

TEST(GreedyPriority, TierBeatsPriority)
{
    GreedyPriorityScheduler s(2);
    Rng rng(3);
    auto in = perInput(
        2, {cand(0, 0, 100.0, static_cast<int>(ServiceTier::BestEffort)),
            cand(1, 0, 0.1, static_cast<int>(ServiceTier::Control))});
    const Matching m = s.schedule(in, rng);
    ASSERT_EQ(m.size(), 1u);
    EXPECT_EQ(m[0].in, 1u) << "control outranks any best-effort ratio";
}

TEST(GreedyPriority, EmptyInput)
{
    GreedyPriorityScheduler s(4);
    Rng rng(5);
    std::vector<std::vector<Candidate>> in(4);
    EXPECT_TRUE(s.schedule(in, rng).empty());
}

TEST(Perfect, SharesOutputs)
{
    PerfectSwitchScheduler s;
    Rng rng(6);
    auto in = perInput(4, {cand(0, 2, 1.0), cand(1, 2, 2.0),
                           cand(2, 2, 3.0), cand(3, 2, 4.0)});
    const Matching m = s.schedule(in, rng);
    EXPECT_EQ(m.size(), 4u) << "no output conflicts in a perfect switch";
    EXPECT_TRUE(SwitchScheduler::validate(m, 4, true));
    EXPECT_FALSE(SwitchScheduler::validate(m, 4, false));
}

TEST(Perfect, PicksBestCandidatePerInput)
{
    PerfectSwitchScheduler s;
    Rng rng(7);
    auto in = perInput(2, {cand(0, 0, 1.0), cand(0, 1, 5.0)});
    const Matching m = s.schedule(in, rng);
    ASSERT_EQ(m.size(), 1u);
    EXPECT_EQ(m[0].out, 1u);
}

TEST(Validate, RejectsDuplicates)
{
    Matching m{cand(0, 0, 1.0), cand(0, 1, 1.0)};
    EXPECT_FALSE(SwitchScheduler::validate(m, 4, false))
        << "two grants for one input";
    Matching m2{cand(0, 0, 1.0), cand(1, 0, 1.0)};
    EXPECT_FALSE(SwitchScheduler::validate(m2, 4, false));
    EXPECT_TRUE(SwitchScheduler::validate(m2, 4, true));
    Matching m3{cand(0, 9, 1.0)};
    EXPECT_FALSE(SwitchScheduler::validate(m3, 4, true))
        << "port beyond the switch radix";
}

TEST(Factory, CreatesRequestedKind)
{
    RouterConfig cfg;
    cfg.numPorts = 4;
    cfg.vcsPerPort = 8;
    cfg.candidates = 2;
    cfg.scheduler = SchedulerKind::Autonet;
    EXPECT_EQ(SwitchScheduler::create(cfg)->name(), "autonet");
    cfg.scheduler = SchedulerKind::Perfect;
    EXPECT_EQ(SwitchScheduler::create(cfg)->name(), "perfect");
    cfg.scheduler = SchedulerKind::BiasedPriority;
    EXPECT_EQ(SwitchScheduler::create(cfg)->name(), "greedy-priority");
    cfg.scheduler = SchedulerKind::Islip;
    EXPECT_EQ(SwitchScheduler::create(cfg)->name(), "islip");
}

/**
 * Property over random candidate sets: every algorithm returns a legal
 * matching that is maximal (no candidate with both endpoints free is
 * left out), and the augmenting scheduler is at least as large as any
 * other algorithm's matching.
 */
class SwitchSchedProperty : public ::testing::TestWithParam<unsigned>
{
  protected:
    static std::vector<std::vector<Candidate>>
    randomCandidates(Rng &rng, unsigned ports, unsigned max_per_input)
    {
        std::vector<std::vector<Candidate>> per(ports);
        for (PortId in = 0; in < ports; ++in) {
            const auto n = rng.below(max_per_input + 1);
            std::vector<PortId> outs;
            for (PortId o = 0; o < ports; ++o)
                outs.push_back(o);
            rng.shuffle(outs);
            for (std::size_t k = 0; k < n && k < outs.size(); ++k) {
                Candidate c = cand(in, outs[k], rng.uniform());
                c.tie = rng.uniform();
                per[in].push_back(c);
            }
        }
        return per;
    }

    static bool
    isMaximal(const Matching &m,
              const std::vector<std::vector<Candidate>> &per,
              unsigned ports)
    {
        std::vector<bool> in_used(ports, false), out_used(ports, false);
        for (const Candidate &c : m) {
            in_used[c.in] = true;
            out_used[c.out] = true;
        }
        for (const auto &cands : per)
            for (const Candidate &c : cands)
                if (!in_used[c.in] && !out_used[c.out])
                    return false;
        return true;
    }
};

TEST_P(SwitchSchedProperty, AllAlgorithmsProduceLegalMatchings)
{
    const unsigned seed = GetParam();
    Rng rng(seed);
    const unsigned ports = 8;
    GreedyPriorityScheduler greedy(ports);
    OutputDrivenScheduler outdrv(ports, 3);
    AutonetScheduler autonet(ports, 3);
    IslipScheduler islip(ports, 3);
    PerfectSwitchScheduler perfect;

    for (int round = 0; round < 200; ++round) {
        const auto per = randomCandidates(rng, ports, 8);
        const Matching mg = greedy.schedule(per, rng);
        const Matching mo = outdrv.schedule(per, rng);
        const Matching ma = autonet.schedule(per, rng);
        const Matching mi = islip.schedule(per, rng);
        const Matching mp = perfect.schedule(per, rng);

        ASSERT_TRUE(SwitchScheduler::validate(mg, ports, false));
        ASSERT_TRUE(SwitchScheduler::validate(mo, ports, false));
        ASSERT_TRUE(SwitchScheduler::validate(ma, ports, false));
        ASSERT_TRUE(SwitchScheduler::validate(mi, ports, false));
        ASSERT_TRUE(SwitchScheduler::validate(mp, ports, true));

        // The augmenting scheduler yields a maximum matching, so it
        // can never be beaten on cardinality.
        ASSERT_GE(mg.size(), mo.size());
        ASSERT_GE(mg.size(), ma.size());
        ASSERT_GE(mg.size(), mi.size());
        ASSERT_TRUE(isMaximal(mg, per, ports));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwitchSchedProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

} // namespace
} // namespace mmr
