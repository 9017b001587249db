/**
 * @file
 * Admission-register drift tests (§4.2): repeated release/re-admit
 * and renegotiation cycles must return the per-link registers to
 * exactly their prior values — any off-by-one would slowly leak or
 * fabricate reservable bandwidth.
 */

#include <gtest/gtest.h>

#include "router/admission.hh"
#include "router/router.hh"
#include "sim/invariant.hh"

namespace mmr
{
namespace
{

TEST(AdmissionCycles, CbrAdmitReleaseRoundTripsExactly)
{
    AdmissionController adm(4, 1000, 2.0, 0.1);
    const unsigned base = adm.allocatedCycles(1);
    const unsigned avail = adm.availableCycles(1);
    for (int round = 0; round < 100; ++round) {
        ASSERT_TRUE(adm.tryAdmitCbr(1, 37));
        ASSERT_TRUE(adm.tryAdmitCbr(1, 5));
        EXPECT_EQ(adm.allocatedCycles(1), base + 42);
        adm.releaseCbr(1, 5);
        adm.releaseCbr(1, 37);
        EXPECT_EQ(adm.allocatedCycles(1), base);
        EXPECT_EQ(adm.availableCycles(1), avail);
        EXPECT_EQ(adm.peakCycles(1), 0u);
    }
}

TEST(AdmissionCycles, VbrAdmitReleaseRoundTripsExactly)
{
    AdmissionController adm(4, 1000, 2.0, 0.1);
    for (int round = 0; round < 100; ++round) {
        ASSERT_TRUE(adm.tryAdmitVbr(2, 10, 60));
        ASSERT_TRUE(adm.tryAdmitVbr(2, 7, 30));
        EXPECT_EQ(adm.allocatedCycles(2), 17u);
        EXPECT_EQ(adm.peakCycles(2), 90u);
        adm.releaseVbr(2, 10, 60);
        adm.releaseVbr(2, 7, 30);
        EXPECT_EQ(adm.allocatedCycles(2), 0u);
        EXPECT_EQ(adm.peakCycles(2), 0u);
    }
}

TEST(AdmissionCycles, RenegotiateUpAndDownIsExact)
{
    AdmissionController adm(2, 1000, 2.0, 0.0);
    ASSERT_TRUE(adm.tryAdmitCbr(0, 100));
    ASSERT_TRUE(adm.renegotiateCbr(0, 100, 250));
    EXPECT_EQ(adm.allocatedCycles(0), 250u);
    ASSERT_TRUE(adm.renegotiateCbr(0, 250, 40));
    EXPECT_EQ(adm.allocatedCycles(0), 40u);
    ASSERT_TRUE(adm.renegotiateCbr(0, 40, 100));
    EXPECT_EQ(adm.allocatedCycles(0), 100u);
    adm.releaseCbr(0, 100);
    EXPECT_EQ(adm.allocatedCycles(0), 0u);
}

TEST(AdmissionCycles, FailedAdmissionLeavesRegistersUntouched)
{
    AdmissionController adm(2, 100, 1.0, 0.0);
    ASSERT_TRUE(adm.tryAdmitCbr(0, 90));
    EXPECT_FALSE(adm.tryAdmitCbr(0, 20));
    EXPECT_EQ(adm.allocatedCycles(0), 90u);
    EXPECT_FALSE(adm.tryAdmitVbr(0, 20, 20));
    EXPECT_EQ(adm.allocatedCycles(0), 90u);
    EXPECT_EQ(adm.peakCycles(0), 0u);
}

/**
 * Whole-router open/close churn: the admission registers, VC pools and
 * credit ledger all have to come back to their pristine state, and the
 * full invariant set must hold after every step.
 */
TEST(AdmissionCycles, RouterOpenCloseChurnLeavesNoDrift)
{
    RouterConfig cfg;
    cfg.numPorts = 4;
    cfg.vcsPerPort = 16;
    MmrRouter router(cfg);
    InvariantChecker chk;
    router.registerInvariants(chk, 1);

    std::vector<unsigned> baseAlloc, basePeak;
    for (PortId o = 0; o < cfg.numPorts; ++o) {
        baseAlloc.push_back(router.admission().allocatedCycles(o));
        basePeak.push_back(router.admission().peakCycles(o));
    }

    for (int round = 0; round < 20; ++round) {
        const ChannelRef cbr = router.openCbr(0, 1, 20.0 * kMbps);
        const ChannelRef vbr =
            router.openVbr(2, 1, 10.0 * kMbps, 40.0 * kMbps, 1);
        const ChannelRef be = router.openBestEffort(3, 2);
        ASSERT_TRUE(cbr.valid());
        ASSERT_TRUE(vbr.valid());
        ASSERT_TRUE(be.valid());
        chk.checkAll(static_cast<Cycle>(round));

        ASSERT_TRUE(router.removeSegment(vbr));
        ASSERT_TRUE(router.removeSegment(cbr));
        ASSERT_TRUE(router.removeSegment(be));
        chk.checkAll(static_cast<Cycle>(round));

        for (PortId o = 0; o < cfg.numPorts; ++o) {
            EXPECT_EQ(router.admission().allocatedCycles(o),
                      baseAlloc[o])
                << "allocated register drifted on port " << o
                << " after round " << round;
            EXPECT_EQ(router.admission().peakCycles(o), basePeak[o])
                << "peak register drifted on port " << o;
        }
        EXPECT_EQ(router.connectionCount(), 0u);
    }
}

/** Renegotiation through the router must keep the ledger invariant. */
TEST(AdmissionCycles, RouterRenegotiateKeepsLedgerConsistent)
{
    RouterConfig cfg;
    cfg.numPorts = 4;
    cfg.vcsPerPort = 16;
    MmrRouter router(cfg);
    InvariantChecker chk;
    router.registerInvariants(chk, 1);

    const ChannelRef id = router.openCbr(0, 1, 10.0 * kMbps);
    ASSERT_TRUE(id.valid());
    const unsigned before = router.admission().allocatedCycles(1);

    ASSERT_TRUE(router.renegotiateBandwidth(id, 40.0 * kMbps));
    chk.run("admission-ledger", 0);
    ASSERT_TRUE(router.renegotiateBandwidth(id, 10.0 * kMbps));
    chk.run("admission-ledger", 0);
    EXPECT_EQ(router.admission().allocatedCycles(1), before);

    ASSERT_TRUE(router.removeSegment(id));
    chk.checkAll(0);
}

} // namespace
} // namespace mmr
