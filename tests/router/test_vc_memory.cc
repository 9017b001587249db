/**
 * @file
 * Unit tests for the virtual channel memory (§3.2): the functional
 * buffer pool and the interleaved-bank timing model.
 */

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <vector>

#include "base/rng.hh"
#include "router/vc_memory.hh"

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

TEST(VcMemory, DepositAndDrainTrackOccupancy)
{
    VcMemory mem(8, 4);
    mem.vc(2).bindBestEffort(1);
    EXPECT_TRUE(mem.deposit(2, makeFlit(0)));
    EXPECT_TRUE(mem.deposit(2, makeFlit(1)));
    EXPECT_EQ(mem.occupancy(), 2u);
    EXPECT_EQ(mem.freeSlots(2), 2u);
    EXPECT_TRUE(mem.flitsAvailable().test(2));

    mem.vc(2).pop();
    mem.noteDrained(2);
    EXPECT_EQ(mem.occupancy(), 1u);
    EXPECT_TRUE(mem.flitsAvailable().test(2));
    mem.vc(2).pop();
    mem.noteDrained(2);
    EXPECT_FALSE(mem.flitsAvailable().test(2));
    EXPECT_EQ(mem.occupancy(), 0u);
}

TEST(VcMemory, OverflowRejectedAndCounted)
{
    VcMemory mem(2, 2);
    mem.vc(0).bindBestEffort(1);
    EXPECT_TRUE(mem.deposit(0, makeFlit(0)));
    EXPECT_TRUE(mem.deposit(0, makeFlit(1)));
    EXPECT_FALSE(mem.deposit(0, makeFlit(2)));
    EXPECT_EQ(mem.overflowCount(), 1u);
    EXPECT_EQ(mem.occupancy(), 2u);
    EXPECT_EQ(mem.freeSlots(0), 0u);
}

TEST(VcMemory, FlitsAvailableTracksManyVcs)
{
    VcMemory mem(64, 4);
    for (VcId v : {VcId{0}, VcId{13}, VcId{63}}) {
        mem.vc(v).bindBestEffort(v + 1);
        mem.deposit(v, makeFlit(v));
    }
    EXPECT_EQ(mem.flitsAvailable().setBits(),
              (std::vector<std::size_t>{0, 13, 63}));
}

/** Flit @p i of VC @p v's own sequence. */
Flit
vcFlit(VcId v, std::uint32_t i)
{
    Flit f = makeFlit(i);
    f.src = v;
    return f;
}

/** Fill every VC to depth round-robin, then drain and refill in a
 * seeded random VC order: each VC must return its own sequence. */
void
checkInterleaving(unsigned nvcs, unsigned depth, std::uint64_t seed)
{
    VcMemory mem(nvcs, depth);
    std::vector<std::uint32_t> pushed(nvcs, 0), popped(nvcs, 0);
    for (VcId v = 0; v < nvcs; ++v)
        mem.vc(v).bindBestEffort(v + 1);
    for (unsigned k = 0; k < depth; ++k) {
        for (VcId v = 0; v < nvcs; ++v)
            ASSERT_TRUE(mem.deposit(v, vcFlit(v, pushed[v]++)));
    }
    for (VcId v = 0; v < nvcs; ++v) {
        EXPECT_FALSE(mem.deposit(v, vcFlit(v, pushed[v])))
            << "VC " << v << " accepted a flit past its depth";
    }
    EXPECT_EQ(mem.overflowCount(), nvcs);

    auto popOne = [&](VcId v) {
        const Flit f = mem.vc(v).pop();
        mem.noteDrained(v);
        EXPECT_EQ(f.src, v) << "VC " << v << " returned another VC's flit";
        EXPECT_EQ(f.seq, popped[v]++) << "VC " << v << " out of order";
    };
    Rng rng(seed);
    const unsigned ops = 3 * nvcs * depth;
    for (unsigned op = 0; op < ops; ++op) {
        const auto v = static_cast<VcId>(rng.below(nvcs));
        const bool full = mem.vc(v).depth() == depth;
        if (!mem.vc(v).empty() && (full || rng.below(2) == 0))
            popOne(v);
        else
            ASSERT_TRUE(mem.deposit(v, vcFlit(v, pushed[v]++)));
    }
    for (VcId v = 0; v < nvcs; ++v) {
        while (!mem.vc(v).empty())
            popOne(v);
        EXPECT_EQ(popped[v], pushed[v]);
    }
    EXPECT_EQ(mem.occupancy(), 0u);
    EXPECT_EQ(mem.overflowCount(), nvcs);
}

TEST(VcMemory, InterleavedVcsKeepTheirOwnOrder)
{
    checkInterleaving(8, 64, 11);
    checkInterleaving(5, 6, 12); // depth below its 8-slot ring
}

TEST(VcMemory, DrainedVcRestartsAtItsFirstSlot)
{
    VcMemory mem(4, 8);
    VcState &vc = mem.vc(1);
    vc.bindBestEffort(1);
    ASSERT_TRUE(mem.deposit(1, makeFlit(0)));
    const Flit *first = &vc.head();
    vc.pop();
    mem.noteDrained(1);
    for (std::uint32_t i = 1; i <= 200; ++i) {
        ASSERT_TRUE(mem.deposit(1, makeFlit(i)));
        ASSERT_EQ(&vc.head(), first) << "deposit " << i;
        EXPECT_EQ(vc.pop().seq, i);
        mem.noteDrained(1);
    }
    // A VC that held two flits restarts too once it drains.
    ASSERT_TRUE(mem.deposit(1, makeFlit(201)));
    ASSERT_TRUE(mem.deposit(1, makeFlit(202)));
    vc.pop();
    mem.noteDrained(1);
    EXPECT_NE(&vc.head(), first);
    vc.pop();
    mem.noteDrained(1);
    ASSERT_TRUE(mem.deposit(1, makeFlit(203)));
    EXPECT_EQ(&vc.head(), first);
}

TEST(VcMemory, UntouchedSlotsAreNeverResident)
{
    constexpr unsigned kVcs = 256;
    constexpr unsigned kDepth = 64;
    VcMemory mem(kVcs, kDepth);
    for (VcId v = 0; v < kVcs; ++v)
        mem.vc(v).bindBestEffort(v + 1);
    // Slot 0 of VC 0 opens the slab's mapping.
    ASSERT_TRUE(mem.deposit(0, makeFlit(0)));
    const auto *slab =
        reinterpret_cast<const unsigned char *>(&mem.vc(0).head());
    mem.vc(0).pop();
    mem.noteDrained(0);
    for (std::uint32_t round = 0; round < 1000; ++round) {
        for (VcId v = 0; v < kVcs; ++v) {
            ASSERT_TRUE(mem.deposit(v, makeFlit(round)));
            mem.vc(v).pop();
            mem.noteDrained(v);
        }
    }

    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(slab) % page, 0u);
    const std::size_t bytes = std::size_t{kVcs} * kDepth * sizeof(Flit);
    std::vector<unsigned char> resident((bytes + page - 1) / page);
    ASSERT_EQ(mincore(const_cast<unsigned char *>(slab), bytes,
                      resident.data()),
              0);
    const auto pages = static_cast<std::size_t>(std::count_if(
        resident.begin(), resident.end(),
        [](unsigned char r) { return (r & 1) != 0; }));
    const std::size_t row0_pages = (kVcs * sizeof(Flit) + page - 1) / page;
    EXPECT_GT(pages, 0u);
    EXPECT_LE(pages, row0_pages)
        << "one-flit VCs touched slots beyond slot 0 (" << resident.size()
        << " pages mapped)";
}

TEST(VcMemory, FailedMappingThrowsBadAlloc)
{
    // 65,535 VCs of 2^31 flit slots each: no address space holds that.
    EXPECT_THROW(VcMemory(65535, 1u << 31), std::bad_alloc);
}

TEST(VcStateDeath, PushWithoutStoragePanics)
{
    VcState vc;
    vc.bindBestEffort(1);
    EXPECT_DEATH(vc.push(makeFlit(0)), "no flit storage");
}

TEST(VcStateDeath, PushIntoFullRingPanics)
{
    VcMemory mem(2, 3); // a 4-slot ring per VC
    VcState &vc = mem.vc(1);
    vc.bindBestEffort(1);
    for (std::uint32_t i = 0; i < 4; ++i)
        vc.push(makeFlit(i));
    EXPECT_DEATH(vc.push(makeFlit(4)), "full VC ring");
}

TEST(VcMemoryDeath, OutOfRangePanics)
{
    VcMemory mem(4, 4);
    EXPECT_DEATH(mem.vc(4), "out of range");
    EXPECT_DEATH(mem.noteDrained(0), "zero occupancy");
}

TEST(VcMemoryModel, WordsPerFlitRoundsUp)
{
    VcMemoryModel m;
    m.wordBits = 32;
    EXPECT_EQ(m.wordsPerFlit(128), 4u);
    EXPECT_EQ(m.wordsPerFlit(129), 5u);
    EXPECT_EQ(m.wordsPerFlit(32), 1u);
}

TEST(VcMemoryModel, MoreBanksMoreBandwidth)
{
    double prev = 0.0;
    for (unsigned banks : {1u, 2u, 4u, 8u}) {
        VcMemoryModel m{banks, 32, 6.0, 1};
        const double rate = m.sustainableRateBps(128);
        EXPECT_GE(rate, prev);
        prev = rate;
    }
}

TEST(VcMemoryModel, DualPortDoublesBandwidth)
{
    VcMemoryModel single{4, 32, 6.0, 1};
    VcMemoryModel dual{4, 32, 6.0, 2};
    EXPECT_NEAR(dual.sustainableRateBps(128),
                2.0 * single.sustainableRateBps(128), 1.0);
}

TEST(VcMemoryModel, MinBanksIsTight)
{
    // The returned bank count sustains the link; one fewer does not.
    const double link = 1.24 * kGbps;
    const unsigned banks =
        VcMemoryModel::minBanksFor(link, 128, 32, 6.0);
    VcMemoryModel ok{banks, 32, 6.0, 1};
    EXPECT_TRUE(ok.matchesLink(128, link));
    if (banks > 1) {
        VcMemoryModel tight{banks - 1, 32, 6.0, 1};
        EXPECT_FALSE(tight.matchesLink(128, link));
    }
}

TEST(VcMemoryModel, PaperDesignPointIsFeasible)
{
    // §3.2: banks and flit size are chosen to balance memory access
    // time against a 1.24 Gb/s link.  A modest SRAM (6 ns) with a
    // 32-bit datapath needs only a handful of interleaved banks.
    const unsigned banks =
        VcMemoryModel::minBanksFor(1.24 * kGbps, 128, 32, 6.0);
    EXPECT_LE(banks, 8u);
}

TEST(VcMemoryModel, FlitAccessScalesWithFlitSize)
{
    VcMemoryModel m{4, 32, 5.0, 1};
    EXPECT_DOUBLE_EQ(m.flitAccessNs(128), 5.0);  // 4 words, 1 group
    EXPECT_DOUBLE_EQ(m.flitAccessNs(256), 10.0); // 8 words, 2 groups
    EXPECT_DOUBLE_EQ(m.flitAccessNs(64), 5.0);   // 2 words, 1 group
}

} // namespace
} // namespace mmr
