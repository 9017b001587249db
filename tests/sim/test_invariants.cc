/**
 * @file
 * Tests for the invariant-checking framework and for each named
 * conservation-law invariant: every checker must fire (panic) on a
 * seeded violation and stay silent on healthy state.
 */

#include <gtest/gtest.h>

#include "router/router.hh"
#include "router/switch_sched.hh"
#include "sim/invariant.hh"
#include "sim/kernel.hh"

namespace mmr
{
namespace
{

RouterConfig
smallConfig()
{
    RouterConfig cfg;
    cfg.numPorts = 4;
    cfg.vcsPerPort = 8;
    cfg.vcBufferFlits = 4;
    cfg.candidates = 2;
    return cfg;
}

// ---------------------------------------------------------------------
// Framework
// ---------------------------------------------------------------------

TEST(InvariantFramework, EnabledByDefaultInTests)
{
    // MMR_INVARIANTS is ON by default and tests run without the env
    // override, so auditing must be active everywhere.
    EXPECT_TRUE(invariant::enabled());
}

TEST(InvariantFramework, RuntimeOverrideWins)
{
    invariant::setEnabled(false);
    EXPECT_FALSE(invariant::enabled());
    invariant::setEnabled(true);
    EXPECT_TRUE(invariant::enabled());
    invariant::clearOverride();
    EXPECT_TRUE(invariant::enabled());
}

TEST(InvariantFramework, RegistryTracksNames)
{
    InvariantChecker chk;
    EXPECT_EQ(chk.size(), 0u);
    chk.add("alpha", [](Cycle) {});
    chk.add("beta", [](Cycle) {}, 4);
    EXPECT_EQ(chk.size(), 2u);
    EXPECT_TRUE(chk.has("alpha"));
    EXPECT_FALSE(chk.has("gamma"));
    EXPECT_EQ(chk.names(),
              (std::vector<std::string>{"alpha", "beta"}));
}

TEST(InvariantFramework, AdvanceHonorsPeriods)
{
    InvariantChecker chk;
    unsigned every = 0, strided = 0;
    chk.add("every-cycle", [&](Cycle) { ++every; });
    chk.add("strided", [&](Cycle) { ++strided; }, 4);
    for (Cycle c = 0; c < 8; ++c)
        chk.advance(c);
    EXPECT_EQ(every, 8u);
    EXPECT_EQ(strided, 2u); // cycles 0 and 4
    EXPECT_EQ(chk.checksRun(), 10u);
}

TEST(InvariantFramework, DispatchMatchesThePeriodRule)
{
    // Mixed strides interleaved in registration order: every cycle must
    // call exactly the entries the plain `now % period` rule selects,
    // in registration order, whether or not any stride is due.
    const std::vector<std::pair<std::string, unsigned>> spec = {
        {"a", 4}, {"b", 1}, {"c", 6}, {"d", 1}, {"e", 4}, {"f", 6}};
    InvariantChecker chk;
    std::vector<std::pair<Cycle, std::string>> calls;
    for (const auto &s : spec) {
        chk.add(
            s.first,
            [&calls, name = s.first](Cycle now) {
                calls.emplace_back(now, name);
            },
            s.second);
    }
    std::vector<std::pair<Cycle, std::string>> want;
    for (Cycle now = 0; now <= 50; ++now) {
        chk.advance(now);
        for (const auto &s : spec)
            if (now % s.second == 0)
                want.emplace_back(now, s.first);
    }
    EXPECT_EQ(calls, want);
    EXPECT_EQ(chk.checksRun(), want.size());
}

TEST(InvariantFramework, DisabledSkipsChecks)
{
    InvariantChecker chk;
    unsigned calls = 0;
    chk.add("counted", [&](Cycle) { ++calls; });
    invariant::setEnabled(false);
    chk.advance(0);
    chk.checkAll(0);
    EXPECT_EQ(calls, 0u);
    invariant::clearOverride();
    chk.advance(1);
    EXPECT_EQ(calls, 1u);
}

TEST(InvariantFramework, RunByNameIgnoresPeriodAndPassesCycle)
{
    InvariantChecker chk;
    Cycle seen = 0;
    chk.add("probe", [&](Cycle now) { seen = now; }, 1000);
    chk.run("probe", 123);
    EXPECT_EQ(seen, 123u);
}

TEST(InvariantFrameworkDeath, UnknownNamePanics)
{
    InvariantChecker chk;
    EXPECT_DEATH(chk.run("nope", 0), "no invariant named");
}

TEST(InvariantFrameworkDeath, DuplicateRegistrationPanics)
{
    InvariantChecker chk;
    chk.add("dup", [](Cycle) {});
    EXPECT_DEATH(chk.add("dup", [](Cycle) {}), "registered twice");
}

// ---------------------------------------------------------------------
// Router registration
// ---------------------------------------------------------------------

TEST(RouterInvariants, RegistersTheFullSet)
{
    MmrRouter router(smallConfig());
    InvariantChecker chk;
    router.registerInvariants(chk);
    for (const char *name :
         {"flit-conservation", "vc-occupancy", "vc-legality",
          "admission-ledger", "matching-validity", "credit-ledger"}) {
        EXPECT_TRUE(chk.has(name)) << name;
    }
    EXPECT_GE(chk.size(), 6u);
}

TEST(RouterInvariants, HealthyRouterPassesAllChecks)
{
    MmrRouter router(smallConfig());
    const ConnId id = router.openCbr(0, 1, 10.0 * kMbps);
    ASSERT_NE(id, kInvalidConn);
    Flit f;
    ASSERT_TRUE(router.inject(id, f));

    InvariantChecker chk;
    router.registerInvariants(chk);
    chk.checkAll(0); // would panic on any violation
    EXPECT_EQ(chk.checksRun(), chk.size());

    Kernel kernel;
    kernel.add(&router, "router");
    kernel.add(&chk, "invariants");
    kernel.run(64); // flit drains through the switch under audit
    EXPECT_EQ(router.flitsForwarded(), 1u);
}

// ---------------------------------------------------------------------
// Seeded violations: every named invariant must fire
// ---------------------------------------------------------------------

TEST(InvariantViolationDeath, FlitConservation)
{
    MmrRouter router(smallConfig());
    const ConnId id = router.openBestEffort(0, 1);
    ASSERT_NE(id, kInvalidConn);
    Flit f;
    ASSERT_TRUE(router.inject(id, f));
    InvariantChecker chk;
    router.registerInvariants(chk);

    // Remove the flit behind the router's back (keeping the occupancy
    // counter in step, so the theft is invisible to vc-occupancy): it
    // is now neither buffered nor forwarded, so a flit was "dropped".
    const SegmentParams *p = router.connection(id);
    ASSERT_NE(p, nullptr);
    router.inputMemory(p->in).vc(p->inVc).pop();
    router.inputMemory(p->in).noteDrained(p->inVc);
    EXPECT_DEATH(chk.run("flit-conservation", 0),
                 "invariant 'flit-conservation' violated");
}

TEST(InvariantViolationDeath, VcOccupancy)
{
    MmrRouter router(smallConfig());
    const ConnId id = router.openBestEffort(2, 3);
    ASSERT_NE(id, kInvalidConn);
    Flit f;
    ASSERT_TRUE(router.inject(id, f));
    InvariantChecker chk;
    router.registerInvariants(chk);

    // Popping without noteDrained desynchronizes the occupancy
    // counter and the flits-available bit vector from the FIFOs.
    const SegmentParams *p = router.connection(id);
    router.inputMemory(p->in).vc(p->inVc).pop();
    EXPECT_DEATH(chk.run("vc-occupancy", 0),
                 "invariant 'vc-occupancy' violated");
}

TEST(InvariantViolationDeath, VcLegality)
{
    MmrRouter router(smallConfig());
    InvariantChecker chk;
    router.registerInvariants(chk);

    // A free VC must never carry an output mapping.
    router.inputMemory(1).vc(5).setMapping(2, 3);
    EXPECT_DEATH(chk.run("vc-legality", 0),
                 "invariant 'vc-legality' violated");
}

TEST(InvariantViolationDeath, AdmissionLedger)
{
    MmrRouter router(smallConfig());
    const ConnId id = router.openCbr(0, 1, 20.0 * kMbps);
    ASSERT_NE(id, kInvalidConn);
    InvariantChecker chk;
    router.registerInvariants(chk);
    chk.run("admission-ledger", 0); // healthy

    // Releasing bandwidth while the segment is still installed makes
    // the allocated register drift below the sum of bound segments.
    const SegmentParams *p = router.connection(id);
    ASSERT_GT(p->allocCycles, 0u);
    router.admission().releaseCbr(p->out, p->allocCycles);
    EXPECT_DEATH(chk.run("admission-ledger", 0),
                 "invariant 'admission-ledger' violated");
}

TEST(InvariantViolationDeath, MatchingValidityOutputCollision)
{
    Matching m;
    Candidate a, b;
    a.in = 0;
    a.out = 2;
    b.in = 1;
    b.out = 2;
    m.push_back(a);
    m.push_back(b);
    ASSERT_FALSE(SwitchScheduler::validate(m, 4, false));
    EXPECT_DEATH(SwitchScheduler::auditMatching(m, 4, false),
                 "invariant 'matching-validity' violated");
    // With output sharing allowed (Perfect switch) the same matching
    // is legal.
    SwitchScheduler::auditMatching(m, 4, true);
}

TEST(InvariantViolationDeath, MatchingValidityInputCollision)
{
    Matching m;
    Candidate a, b;
    a.in = 3;
    a.out = 0;
    b.in = 3;
    b.out = 1;
    m.push_back(a);
    m.push_back(b);
    EXPECT_DEATH(SwitchScheduler::auditMatching(m, 4, false),
                 "matched twice");
}

TEST(InvariantViolationDeath, MatchingValidityPortRange)
{
    Matching m;
    Candidate c;
    c.in = 9;
    c.out = 0;
    m.push_back(c);
    EXPECT_DEATH(SwitchScheduler::auditMatching(m, 4, false),
                 "outside the");
}

TEST(InvariantViolationDeath, CreditLedgerCensusMismatch)
{
    CreditManager cm(2, 4, 3);
    cm.consume(0, 0);
    // An honest census (one flit sitting downstream of (0,0)) passes.
    const auto honest = [](PortId p, VcId v) -> unsigned {
        return (p == 0 && v == 0) ? 1u : 0u;
    };
    cm.audit(honest);

    InvariantChecker chk;
    // A census that lost the flit breaks credits + occupancy == depth.
    cm.registerInvariants(chk, [](PortId, VcId) { return 0u; });
    EXPECT_DEATH(chk.run("credit-ledger", 0),
                 "invariant 'credit-ledger' violated");
}

} // namespace
} // namespace mmr
