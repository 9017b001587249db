/**
 * @file
 * Status bit vectors (paper §4.1).
 *
 * The MMR trades silicon for scheduling speed by keeping one bit per
 * virtual channel in vectors such as flits_available,
 * credits_available, CBR_service_requested, CBR_bandwidth_serviced.
 * Link schedulers combine these with wide AND/OR operations to obtain
 * candidate sets in a few "gate delays".  This class is that hardware
 * structure: a packed dynamic bit vector with fast word-parallel
 * boolean algebra and set-bit iteration.
 *
 * Everything the per-cycle scheduling loop touches — set/clear/test,
 * findFirst, forEachSet — is defined inline here so the hot path
 * compiles down to the word-level bit twiddling (countr_zero over
 * 64-bit words) with no call overhead.
 */

#ifndef MMR_BASE_BITVECTOR_HH
#define MMR_BASE_BITVECTOR_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/logging.hh"

namespace mmr
{

class BitVector
{
  public:
    /** Bits per storage word (the unit of word-parallel operations). */
    static constexpr std::size_t kWordBits = 64;

    BitVector() = default;

    /** Create a vector of @p nbits bits, all clear. */
    explicit BitVector(std::size_t nbits)
        : numBits(nbits), words((nbits + kWordBits - 1) / kWordBits, 0)
    {
    }

    /** Number of bits tracked. */
    std::size_t size() const { return numBits; }

    /** Resize (new bits are clear; content preserved). */
    void resize(std::size_t nbits);

    void
    set(std::size_t i)
    {
        mmr_assert(i < numBits, "bit index ", i, " out of range ",
                   numBits);
        words[i / kWordBits] |= (std::uint64_t{1} << (i % kWordBits));
    }

    void
    clear(std::size_t i)
    {
        mmr_assert(i < numBits, "bit index ", i, " out of range ",
                   numBits);
        words[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits));
    }

    void
    assign(std::size_t i, bool v)
    {
        if (v)
            set(i);
        else
            clear(i);
    }

    bool
    test(std::size_t i) const
    {
        mmr_assert(i < numBits, "bit index ", i, " out of range ",
                   numBits);
        return (words[i / kWordBits] >> (i % kWordBits)) & 1;
    }

    /** Set/clear every bit. */
    void setAll();

    void
    clearAll()
    {
        for (auto &w : words)
            w = 0;
    }

    /** Population count. */
    std::size_t
    count() const
    {
        std::size_t n = 0;
        for (auto w : words)
            n += static_cast<std::size_t>(std::popcount(w));
        return n;
    }

    /** True when no bit is set. */
    bool
    none() const
    {
        for (auto w : words)
            if (w)
                return false;
        return true;
    }

    /** True when at least one bit is set. */
    bool any() const { return !none(); }

    /**
     * Index of the first set bit at or after @p from, or size() when
     * there is none.  Enables "for (i = v.findFirst(); i < v.size();
     * i = v.findNext(i))" iteration over candidate sets.
     */
    std::size_t
    findFirst(std::size_t from = 0) const
    {
        if (from >= numBits)
            return numBits;
        std::size_t wi = from / kWordBits;
        std::uint64_t w =
            words[wi] & (~std::uint64_t{0} << (from % kWordBits));
        for (;;) {
            if (w) {
                return wi * kWordBits +
                       static_cast<std::size_t>(std::countr_zero(w));
            }
            if (++wi >= words.size())
                return numBits;
            w = words[wi];
        }
    }

    /** Index of the first set bit strictly after @p i, or size(). */
    std::size_t findNext(std::size_t i) const { return findFirst(i + 1); }

    /**
     * Index of the first set bit at or after @p from, wrapping to bit
     * 0 when none follows; size() only when the vector is empty of
     * set bits.  This is the round-robin pointer scan of an iSLIP
     * grant/accept stage collapsed to at most two word walks.
     */
    std::size_t
    findFirstWrap(std::size_t from) const
    {
        const std::size_t i = findFirst(from);
        if (i < numBits)
            return i;
        return findFirst(0);
    }

    /**
     * Visit every set bit in ascending order: one word load per 64
     * channels, then countr_zero + clear-lowest-set-bit per member —
     * the software form of the §4.1 parallel candidate extraction.
     */
    template <typename Fn>
    void
    forEachSet(Fn &&fn) const
    {
        for (std::size_t wi = 0; wi < words.size(); ++wi) {
            std::uint64_t w = words[wi];
            while (w) {
                fn(wi * kWordBits +
                   static_cast<std::size_t>(std::countr_zero(w)));
                w &= w - 1;
            }
        }
    }

    /** Collect the indices of all set bits (ascending). */
    std::vector<std::size_t> setBits() const;

    /** Word-parallel boolean algebra (operands must match in size). */
    BitVector &
    operator&=(const BitVector &o)
    {
        mmr_assert(numBits == o.numBits, "bit vector size mismatch");
        for (std::size_t i = 0; i < words.size(); ++i)
            words[i] &= o.words[i];
        return *this;
    }

    BitVector &
    operator|=(const BitVector &o)
    {
        mmr_assert(numBits == o.numBits, "bit vector size mismatch");
        for (std::size_t i = 0; i < words.size(); ++i)
            words[i] |= o.words[i];
        return *this;
    }

    BitVector &
    operator^=(const BitVector &o)
    {
        mmr_assert(numBits == o.numBits, "bit vector size mismatch");
        for (std::size_t i = 0; i < words.size(); ++i)
            words[i] ^= o.words[i];
        return *this;
    }

    /** a &= ~b, the "exclude already-serviced channels" operation. */
    BitVector &
    andNot(const BitVector &o)
    {
        mmr_assert(numBits == o.numBits, "bit vector size mismatch");
        for (std::size_t i = 0; i < words.size(); ++i)
            words[i] &= ~o.words[i];
        return *this;
    }

    /** Flip every bit (tail bits beyond size() stay clear). */
    void invert();

    friend BitVector operator&(BitVector a, const BitVector &b);
    friend BitVector operator|(BitVector a, const BitVector &b);
    friend BitVector operator^(BitVector a, const BitVector &b);

    bool operator==(const BitVector &o) const;

  private:
    /** Clear the unused bits of the last word. */
    void trimTail();

    std::size_t numBits = 0;
    std::vector<std::uint64_t> words;
};

} // namespace mmr

#endif // MMR_BASE_BITVECTOR_HH
