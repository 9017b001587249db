/**
 * @file
 * Unit tests for FlatMap, the open-addressing table behind the
 * end-to-end recorder's connection index: insert/find/erase, reuse of
 * tombstoned slots, the same-capacity tombstone sweep, and that
 * forEach sees live entries only.  That a reserved table churns
 * without allocating is proved under the counting allocator in
 * tests/harness/test_zero_alloc.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/flat_map.hh"

namespace mmr
{
namespace
{

using Map = FlatMap<std::uint32_t, std::uint32_t>;

std::vector<std::pair<std::uint32_t, std::uint32_t>>
entries(const Map &m)
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
    m.forEach([&](std::uint32_t k, std::uint32_t v) {
        out.emplace_back(k, v);
    });
    return out;
}

TEST(FlatMap, InsertFindErase)
{
    Map m;
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_FALSE(m.erase(7));

    for (std::uint32_t k = 0; k < 100; ++k) {
        const auto [value, inserted] = m.insert(k * 1000, k);
        EXPECT_TRUE(inserted);
        EXPECT_EQ(*value, k);
    }
    EXPECT_EQ(m.size(), 100u);
    for (std::uint32_t k = 0; k < 100; ++k) {
        ASSERT_NE(m.find(k * 1000), nullptr) << k;
        EXPECT_EQ(*m.find(k * 1000), k);
    }
    EXPECT_EQ(m.find(1), nullptr);

    // Emplace semantics: an existing mapping is left untouched.
    const auto [value, inserted] = m.insert(5000, 99);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*value, 5u);

    // The value pointer is writable in place.
    *m.find(5000) = 55;
    EXPECT_EQ(*m.find(5000), 55u);

    EXPECT_TRUE(m.erase(5000));
    EXPECT_FALSE(m.erase(5000));
    EXPECT_EQ(m.find(5000), nullptr);
    EXPECT_EQ(m.size(), 99u);
    // Keys probing past the tombstone are still found.
    for (std::uint32_t k = 0; k < 100; ++k) {
        if (k != 5) {
            EXPECT_NE(m.find(k * 1000), nullptr) << k;
        }
    }
}

TEST(FlatMap, ReinsertTakesItsTombstone)
{
    Map m;
    for (std::uint32_t k = 1; k <= 6; ++k)
        m.insert(k, k);
    const auto before = entries(m);

    // An erased key leaves a tombstone on its own probe run; inserted
    // again, it takes that slot back, so the slot order is unchanged.
    for (std::uint32_t k = 1; k <= 6; ++k) {
        ASSERT_TRUE(m.erase(k));
        m.insert(k, k);
        EXPECT_EQ(entries(m), before) << "key " << k;
    }
    EXPECT_EQ(m.size(), 6u);
}

TEST(FlatMap, SameCapacitySweepKeepsEveryLiveEntry)
{
    // A sliding window of live keys, as session churn drives the
    // recorder's index: the live count never grows, so tombstones
    // pile up until the table sweeps them at the same capacity, many
    // times over.  Every live key keeps its value through each sweep,
    // and no erased key comes back.
    constexpr std::uint32_t kLive = 40;
    Map m;
    for (std::uint32_t k = 0; k < kLive; ++k)
        m.insert(k, k * 3);
    for (std::uint32_t k = kLive; k < 50 * kLive; ++k) {
        ASSERT_TRUE(m.erase(k - kLive));
        ASSERT_TRUE(m.insert(k, k * 3).second);
        ASSERT_EQ(m.size(), kLive);
        ASSERT_EQ(m.find(k - kLive), nullptr);
        for (std::uint32_t j = k + 1 - kLive; j <= k; ++j) {
            const std::uint32_t *v = m.find(j);
            ASSERT_NE(v, nullptr) << j << " lost after key " << k;
            ASSERT_EQ(*v, j * 3);
        }
    }
}

TEST(FlatMap, ForEachVisitsLiveEntriesOnly)
{
    Map m;
    for (std::uint32_t k = 0; k < 30; ++k)
        m.insert(k + 100, k);
    for (std::uint32_t k = 0; k < 30; k += 2)
        m.erase(k + 100);

    auto seen = entries(m);
    std::sort(seen.begin(), seen.end());
    std::vector<std::pair<std::uint32_t, std::uint32_t>> want;
    for (std::uint32_t k = 1; k < 30; k += 2)
        want.emplace_back(k + 100, k);
    EXPECT_EQ(seen, want);
    EXPECT_EQ(seen.size(), m.size());

    // Emptied by erases: the tombstones are not visited either.
    for (std::uint32_t k = 1; k < 30; k += 2)
        m.erase(k + 100);
    EXPECT_TRUE(entries(m).empty());
    EXPECT_EQ(m.size(), 0u);
}

} // namespace
} // namespace mmr
