/**
 * @file
 * Determinism audit (§5 methodology): two runs of the single-router
 * harness with the same seed must produce bit-identical statistics.
 * Any dependence on container iteration order, uninitialized state or
 * address-dependent hashing shows up here as a digest mismatch.
 */

#include <gtest/gtest.h>

#include "harness/single_router.hh"

namespace mmr
{
namespace
{

ExperimentConfig
auditConfig(std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.router.numPorts = 4;
    cfg.router.vcsPerPort = 32;
    cfg.offeredLoad = 0.6;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 12000;
    cfg.seed = seed;
    // Mixed workload so all three service classes, the VBR deadline
    // ledger and the per-class recorders feed the digest.
    cfg.mix.cbrShare = 0.5;
    cfg.mix.vbrShare = 0.3;
    cfg.mix.beShare = 0.2;
    return cfg;
}

TEST(Determinism, SameSeedSameDigest)
{
    const ExperimentResult a = runSingleRouter(auditConfig(1234));
    const ExperimentResult b = runSingleRouter(auditConfig(1234));
    EXPECT_GT(a.flitsDelivered, 0u);
    EXPECT_GT(a.connections, 0u);
    EXPECT_EQ(resultDigest(a), resultDigest(b))
        << "same-seed runs diverged: simulation is not deterministic";
    // Spot-check a few raw fields so a digest bug cannot mask a
    // genuine divergence.
    EXPECT_EQ(a.flitsDelivered, b.flitsDelivered);
    EXPECT_EQ(a.connections, b.connections);
    EXPECT_DOUBLE_EQ(a.meanDelayCycles, b.meanDelayCycles);
    EXPECT_DOUBLE_EQ(a.meanJitterCycles, b.meanJitterCycles);
    EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
}

TEST(Determinism, DifferentSeedsDiverge)
{
    // Not a strict requirement, but if two different seeds collide on
    // every statistic the digest is almost certainly not looking at
    // the simulation at all.
    const ExperimentResult a = runSingleRouter(auditConfig(1));
    const ExperimentResult b = runSingleRouter(auditConfig(2));
    EXPECT_NE(resultDigest(a), resultDigest(b));
}

TEST(Determinism, DigestIsOrderSensitive)
{
    ExperimentResult r;
    r.meanDelayCycles = 3.0;
    r.meanJitterCycles = 7.0;
    const std::uint64_t d1 = resultDigest(r);
    std::swap(r.meanDelayCycles, r.meanJitterCycles);
    EXPECT_NE(resultDigest(r), d1);
}

TEST(Determinism, InvariantAuditorRanDuringTheRun)
{
    SingleRouterExperiment exp(auditConfig(77));
    exp.run();
    // The full invariant set must have been registered and exercised.
    const auto names = exp.invariants().names();
    EXPECT_GE(names.size(), 6u);
    for (const char *name :
         {"flit-conservation", "vc-occupancy", "vc-legality",
          "admission-ledger", "matching-validity", "credit-ledger"}) {
        EXPECT_TRUE(exp.invariants().has(name)) << name;
    }
    EXPECT_GT(exp.invariants().checksRun(), 0u)
        << "auditing was registered but never executed";
}

} // namespace
} // namespace mmr
