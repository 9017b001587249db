/**
 * @file
 * Open-addressing hash map for setup-path connection tables.
 *
 * The end-to-end recorder's connection index (id -> record number)
 * churns one insert + one erase per session.
 * std::unordered_map pays a node allocation per insert — a million
 * heap round-trips per churn run — and exposes hash-bucket iteration
 * order, which mmr-lint's unordered-iter rule exists to keep out of
 * results.
 *
 * FlatMap is the project-shaped replacement: open addressing with
 * linear probing over a power-of-two slot array, tombstones on erase,
 * and growth only when the live count crosses the load limit — so a
 * table that has reached its churn-steady peak never allocates again,
 * matching the amortized-to-zero discipline of the per-cycle scratch.
 * Values live inline in the slot array (keep them POD-sized; big
 * values belong in a pool indexed by a FlatMap<K, uint32_t>, as the
 * recorder's connection records do).
 *
 * Iteration is deliberately narrow: no begin()/end(), only
 * forEach(), which visits live entries in slot-array order.  That
 * order is fully determined by this file's own insert/erase/rehash
 * code — reproducible across runs and platforms, unlike a standard
 * library's bucket layout — but it is still not key order, so
 * callers must restrict themselves to commutative folds or
 * collect-then-sort (the same contract mmr-lint's unordered-iter
 * rule enforces on the containers this replaces).
 */

#ifndef MMR_BASE_FLAT_MAP_HH
#define MMR_BASE_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace mmr
{

template <typename K, typename V>
class FlatMap
{
  public:
    FlatMap() = default;

    std::size_t size() const { return liveCount; }

    /** Find the value for @p key, or nullptr. */
    V *
    find(K key)
    {
        const std::size_t i = findSlot(key);
        return i == kNoSlot ? nullptr : &slots[i].value;
    }

    const V *
    find(K key) const
    {
        const std::size_t i = findSlot(key);
        return i == kNoSlot ? nullptr : &slots[i].value;
    }

    /**
     * Insert key -> value, returning {slot value, inserted}.  An
     * existing mapping is left untouched (emplace semantics).
     */
    std::pair<V *, bool>
    insert(K key, V value)
    {
        reserveOne();
        std::size_t i = probeFor(key);
        if (slots[i].state == State::Live)
            return {&slots[i].value, false};
        if (slots[i].state == State::Tombstone)
            --tombCount;
        slots[i].state = State::Live;
        slots[i].key = key;
        slots[i].value = std::move(value);
        ++liveCount;
        return {&slots[i].value, true};
    }

    /** Erase @p key; returns true when it was present. */
    bool
    erase(K key)
    {
        const std::size_t i = findSlot(key);
        if (i == kNoSlot)
            return false;
        slots[i].state = State::Tombstone;
        --liveCount;
        ++tombCount;
        return true;
    }

    /**
     * Visit every live entry as fn(key, value), in slot-array order:
     * deterministic, but not key order — commutative folds and
     * collect-then-sort only (see the file header).
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots)
            if (s.state == State::Live)
                fn(s.key, s.value);
    }

    /** Grow the slot array so @p n live entries fit alloc-free. */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = kMinCapacity;
        while (n * 2 >= cap) // keep load factor < 1/2
            cap *= 2;
        if (cap > slots.size())
            rehash(cap);
        // Mint the rehash double-buffer too: otherwise the *first*
        // same-capacity tombstone sweep still allocates (spare is
        // empty until a rehash has retired an array into it).
        if (spare.size() < slots.size()) {
            spare.clear();
            spare.resize(slots.size());
        }
    }

  private:
    enum class State : std::uint8_t { Empty, Live, Tombstone };

    struct Slot
    {
        K key{};
        V value{};
        State state = State::Empty;
    };

    static constexpr std::size_t kNoSlot = ~std::size_t{0};
    static constexpr std::size_t kMinCapacity = 16;

    /** Fibonacci multiplicative hash: integer keys (conn ids) are
     * near-sequential, so mix before masking. */
    std::size_t
    indexOf(K key) const
    {
        const std::uint64_t h =
            static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
        return static_cast<std::size_t>(h >> shift);
    }

    std::size_t
    findSlot(K key) const
    {
        if (slots.empty())
            return kNoSlot;
        const std::size_t mask = slots.size() - 1;
        for (std::size_t i = indexOf(key);; i = (i + 1) & mask) {
            const Slot &s = slots[i];
            if (s.state == State::Empty)
                return kNoSlot;
            if (s.state == State::Live && s.key == key)
                return i;
        }
    }

    /** First slot where @p key lives or can be placed: an existing
     * live slot, else the first tombstone seen, else the empty that
     * ends the probe run. */
    std::size_t
    probeFor(K key)
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t firstTomb = kNoSlot;
        for (std::size_t i = indexOf(key);; i = (i + 1) & mask) {
            const Slot &s = slots[i];
            if (s.state == State::Live) {
                if (s.key == key)
                    return i;
            } else if (s.state == State::Tombstone) {
                if (firstTomb == kNoSlot)
                    firstTomb = i;
            } else {
                return firstTomb != kNoSlot ? firstTomb : i;
            }
        }
    }

    /** Make room for one more entry.  Grows only when live entries
     * would cross half capacity — a table at its steady-state peak
     * stays put.  A tombstone-heavy table is rehashed in place
     * (same capacity) to keep probe runs short. */
    void
    reserveOne()
    {
        if (slots.empty()) {
            rehash(kMinCapacity);
            return;
        }
        if ((liveCount + 1) * 2 > slots.size())
            rehash(slots.size() * 2);
        else if ((liveCount + tombCount + 1) * 4 > slots.size() * 3)
            rehash(slots.size()); // sweep tombstones, same footprint
    }

    void
    rehash(std::size_t newCap)
    {
        // Double-buffered: the retired slot array is kept as the next
        // rehash's target, so the recurring same-capacity tombstone
        // sweeps of a churn-steady table recycle two arrays forever
        // instead of allocating a fresh one each time (the dynamic
        // proof is test_zero_alloc's churn window).  Only capacity
        // *growth* still touches the heap.
        std::vector<Slot> old;
        old.swap(slots);
        slots.swap(spare);
        if (slots.size() != newCap) {
            slots.clear();
            slots.resize(newCap);
        } else {
            for (Slot &s : slots)
                s.state = State::Empty;
        }
        shift = 64;
        for (std::size_t c = newCap; c > 1; c /= 2)
            --shift;
        liveCount = 0;
        tombCount = 0;
        for (Slot &s : old)
            if (s.state == State::Live)
                insert(s.key, std::move(s.value));
        spare.swap(old);
    }

    std::vector<Slot> slots;
    std::vector<Slot> spare; ///< retired array, reused by rehash()
    std::size_t liveCount = 0;
    std::size_t tombCount = 0;
    unsigned shift = 64; ///< 64 - log2(capacity), for indexOf
};

} // namespace mmr

#endif // MMR_BASE_FLAT_MAP_HH
