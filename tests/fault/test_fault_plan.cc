/**
 * @file
 * FaultPlan tests: seed determinism, horizon bounds, chronological
 * order, partition avoidance, explicit-event parsing and the
 * toSpec()/fromEvents() round trip, and the fault-model spec parser.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "fault/fault_plan.hh"
#include "network/topology.hh"

namespace mmr
{
namespace
{

FaultModel
churnModel(double fail_per_10k = 2.0, Cycle repair = 1000,
           Cycle horizon = 20000)
{
    FaultModel m;
    m.linkFailPer10k = fail_per_10k;
    m.meanRepairCycles = repair;
    m.horizon = horizon;
    return m;
}

std::pair<NodeId, NodeId>
linkKey(NodeId a, NodeId b)
{
    return {std::min(a, b), std::max(a, b)};
}

/** Replay the schedule and return the largest concurrent down-set. */
std::size_t
maxConcurrentDowns(const FaultPlan &plan)
{
    std::set<std::pair<NodeId, NodeId>> down;
    std::size_t worst = 0;
    for (const auto &e : plan.events()) {
        if (e.kind == FaultEvent::Kind::LinkDown)
            down.insert(linkKey(e.a, e.b));
        else
            down.erase(linkKey(e.a, e.b));
        worst = std::max(worst, down.size());
    }
    return worst;
}

TEST(FaultPlan, SameSeedSameSchedule)
{
    const Topology t = Topology::mesh2d(3, 3);
    const FaultModel m = churnModel();
    const FaultPlan a = FaultPlan::random(t, m, 99);
    const FaultPlan b = FaultPlan::random(t, m, 99);
    ASSERT_EQ(a.events().size(), b.events().size());
    EXPECT_GT(a.events().size(), 0u) << "churn model produced nothing";
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].at, b.events()[i].at);
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].a, b.events()[i].a);
        EXPECT_EQ(a.events()[i].b, b.events()[i].b);
    }
    EXPECT_EQ(a.toSpec(), b.toSpec());
}

TEST(FaultPlan, DifferentSeedsDiffer)
{
    const Topology t = Topology::mesh2d(3, 3);
    const FaultModel m = churnModel();
    EXPECT_NE(FaultPlan::random(t, m, 1).toSpec(),
              FaultPlan::random(t, m, 2).toSpec());
}

TEST(FaultPlan, EventsChronologicalAndWithinHorizon)
{
    const Topology t = Topology::torus2d(4, 4);
    const FaultPlan plan = FaultPlan::random(t, churnModel(), 7);
    Cycle prev = 0;
    for (const auto &e : plan.events()) {
        EXPECT_GE(e.at, prev) << "events out of order";
        EXPECT_LT(e.at, churnModel().horizon);
        EXPECT_TRUE(t.hasLink(e.a, e.b));
        prev = e.at;
    }
}

TEST(FaultPlan, PartitionAvoidanceOnRing)
{
    // A ring minus one link is a line; removing any second link
    // partitions it.  With repairs disabled every down is permanent,
    // so a partition-avoiding plan can schedule at most one failure
    // no matter how hot the failure rate runs.
    const Topology t = Topology::ring(6);
    FaultModel m = churnModel(50.0, /*repair=*/0, /*horizon=*/50000);
    const FaultPlan plan = FaultPlan::random(t, m, 3);
    EXPECT_LE(plan.events().size(), 1u);
    EXPECT_GT(plan.partitionSkips(), 0u)
        << "a hot failure rate must have tripped the partition guard";
    EXPECT_LE(maxConcurrentDowns(plan), 1u);
}

TEST(FaultPlan, AllowPartitionLiftsTheGuard)
{
    const Topology t = Topology::ring(6);
    FaultModel m = churnModel(50.0, /*repair=*/0, /*horizon=*/50000);
    m.allowPartition = true;
    const FaultPlan plan = FaultPlan::random(t, m, 3);
    EXPECT_GT(plan.events().size(), 1u);
    EXPECT_EQ(plan.partitionSkips(), 0u);
}

TEST(FaultPlan, ChurnNeverExceedsConnectivityBudgetOnMesh)
{
    // With repairs on, concurrent downs happen; replaying the schedule
    // must still never disconnect a 2d mesh when the guard is active.
    const Topology t = Topology::mesh2d(4, 4);
    const FaultPlan plan =
        FaultPlan::random(t, churnModel(20.0, 2000, 40000), 11);
    ASSERT_GT(plan.events().size(), 2u);

    std::set<std::pair<NodeId, NodeId>> down;
    auto connected = [&]() {
        std::vector<bool> seen(t.numNodes(), false);
        std::vector<NodeId> stack{0};
        seen[0] = true;
        unsigned reached = 1;
        while (!stack.empty()) {
            const NodeId n = stack.back();
            stack.pop_back();
            for (const auto &pi : t.ports(n)) {
                const NodeId nb = pi.neighbor;
                if (down.count(linkKey(n, nb)) || seen[nb])
                    continue;
                seen[nb] = true;
                ++reached;
                stack.push_back(nb);
            }
        }
        return reached == t.numNodes();
    };

    for (const auto &e : plan.events()) {
        if (e.kind == FaultEvent::Kind::LinkDown)
            down.insert(linkKey(e.a, e.b));
        else
            down.erase(linkKey(e.a, e.b));
        EXPECT_TRUE(connected())
            << "plan disconnected the mesh at cycle " << e.at;
    }
}

TEST(FaultPlan, FromEventsParsesAndRoundTrips)
{
    const Topology t = Topology::ring(4);
    const FaultPlan plan =
        FaultPlan::fromEvents("down@500:2-3;up@900:2-3;down@950:0-1", t);
    ASSERT_EQ(plan.events().size(), 3u);
    EXPECT_EQ(plan.events()[0].at, 500u);
    EXPECT_EQ(plan.events()[0].kind, FaultEvent::Kind::LinkDown);
    EXPECT_EQ(plan.events()[0].a, 2u);
    EXPECT_EQ(plan.events()[0].b, 3u);
    EXPECT_EQ(plan.events()[1].kind, FaultEvent::Kind::LinkUp);
    EXPECT_EQ(plan.events()[2].at, 950u);

    // toSpec() must parse back to the identical schedule.
    const FaultPlan again = FaultPlan::fromEvents(plan.toSpec(), t);
    ASSERT_EQ(again.events().size(), plan.events().size());
    for (std::size_t i = 0; i < plan.events().size(); ++i) {
        EXPECT_EQ(again.events()[i].at, plan.events()[i].at);
        EXPECT_EQ(again.events()[i].kind, plan.events()[i].kind);
        EXPECT_EQ(again.events()[i].a, plan.events()[i].a);
        EXPECT_EQ(again.events()[i].b, plan.events()[i].b);
    }
}

TEST(FaultPlan, FromEventsRejectsGarbage)
{
    const Topology t = Topology::ring(4);
    EXPECT_THROW(FaultPlan::fromEvents("down@500:0-2", t),
                 std::runtime_error)
        << "0 and 2 are not adjacent on ring(4)";
    EXPECT_THROW(FaultPlan::fromEvents("sideways@500:0-1", t),
                 std::runtime_error);
    EXPECT_THROW(FaultPlan::fromEvents("down@x:0-1", t),
                 std::runtime_error);
    // Cycles and node ids are whole numbers that fit their type: no
    // sign, fraction, overflow or wrap.
    for (const char *spec :
         {"down@-5:0-1", "down@1e30:0-1", "down@5:1.5-0",
          "down@5:4294967296-1", "down@nan:0-1", "down@5x:0-1"})
        EXPECT_THROW(FaultPlan::fromEvents(spec, t), std::runtime_error)
            << spec;
}

TEST(FaultPlan, ParseFaultModelKeysAndDefaults)
{
    const FaultModel m = parseFaultModel(
        "fail=0.01,repair=4000,drop=0.02,corrupt=1e-4,partition=1");
    EXPECT_DOUBLE_EQ(m.linkFailPer10k, 0.01);
    EXPECT_EQ(m.meanRepairCycles, 4000u);
    EXPECT_DOUBLE_EQ(m.probeDropRate, 0.02);
    EXPECT_DOUBLE_EQ(m.corruptRate, 1e-4);
    EXPECT_TRUE(m.allowPartition);

    const FaultModel d = parseFaultModel("fail=0.5");
    EXPECT_DOUBLE_EQ(d.linkFailPer10k, 0.5);
    EXPECT_EQ(d.meanRepairCycles, FaultModel{}.meanRepairCycles);
    EXPECT_DOUBLE_EQ(d.probeDropRate, 0.0);
    EXPECT_FALSE(d.allowPartition);

    EXPECT_THROW(parseFaultModel("fail=0.5,bogus=1"),
                 std::runtime_error);
    EXPECT_THROW(parseFaultModel("drop=1.5"), std::runtime_error)
        << "probabilities above 1 must be rejected";
    // Every key is finite and in range; cycle counts are whole.
    for (const char *spec :
         {"fail=1,repair=-5", "repair=1e30", "repair=2.5", "drop=nan",
          "corrupt=nan", "fail=nan", "fail=inf", "fail=-1",
          "horizon=-1", "horizon=1e30", "partition=2", "fail=1x"})
        EXPECT_THROW(parseFaultModel(spec), std::runtime_error) << spec;
    EXPECT_EQ(parseFaultModel("repair=4e3,horizon=0").meanRepairCycles,
              4000u);
}

TEST(FaultPlan, EmptinessTracksEventsAndRates)
{
    EXPECT_TRUE(FaultPlan().empty());
    const Topology t = Topology::ring(4);
    EXPECT_FALSE(FaultPlan::fromEvents("down@5:0-1", t).empty());

    FaultPlan rates_only;
    FaultModel m;
    m.corruptRate = 1e-3;
    rates_only.setModel(m);
    EXPECT_FALSE(rates_only.empty())
        << "stochastic rates alone still inject faults";
}

} // namespace
} // namespace mmr
