/**
 * @file
 * FNV-1a over raw field bytes: the hash behind resultDigest and
 * networkResultDigest.  Fields are folded in order, so the digest is
 * order-sensitive, and doubles are canonicalized (-0.0 hashes as 0.0).
 */

#ifndef MMR_HARNESS_FNV1A_HH
#define MMR_HARNESS_FNV1A_HH

#include <cstdint>
#include <cstring>

namespace mmr
{

class Fnv1a
{
  public:
    void
    addU64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    }

    void
    addDouble(double v)
    {
        // Canonicalize: -0.0 == 0.0 but their bit patterns differ.
        if (v == 0.0)
            v = 0.0;
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        addU64(bits);
    }

    std::uint64_t value() const { return hash; }

  private:
    std::uint64_t hash = 0xcbf29ce484222325ULL;
};

} // namespace mmr

#endif // MMR_HARNESS_FNV1A_HH
