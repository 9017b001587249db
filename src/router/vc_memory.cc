#include "router/vc_memory.hh"

#include <sys/mman.h>

#include <bit>
#include <cmath>
#include <new>
#include <type_traits>

#include "base/logging.hh"
#include "sim/invariant.hh"

namespace mmr
{

unsigned
VcMemoryModel::wordsPerFlit(unsigned flit_bits) const
{
    return (flit_bits + wordBits - 1) / wordBits;
}

double
VcMemoryModel::flitAccessNs(unsigned flit_bits) const
{
    // Low-order interleaving streams wordsPerFlit words across the
    // banks; each group of `banks` words takes one access time.
    const unsigned words = wordsPerFlit(flit_bits);
    const double groups =
        std::ceil(static_cast<double>(words) / banks);
    return groups * accessTimeNs;
}

double
VcMemoryModel::sustainableRateBps(unsigned flit_bits) const
{
    // Per flit cycle the memory performs one write and one read of a
    // full flit; single-ported banks serialize the two.
    const double accesses_per_flit =
        portsPerBank >= 2 ? 1.0 : 2.0;
    const double ns_per_flit = accesses_per_flit * flitAccessNs(flit_bits);
    return static_cast<double>(flit_bits) / (ns_per_flit * 1e-9);
}

bool
VcMemoryModel::matchesLink(unsigned flit_bits, double link_rate_bps) const
{
    return sustainableRateBps(flit_bits) >= link_rate_bps;
}

unsigned
VcMemoryModel::minBanksFor(double link_rate_bps, unsigned flit_bits,
                           unsigned word_bits, double access_ns,
                           unsigned ports_per_bank)
{
    for (unsigned b = 1; b <= 4096; ++b) {
        VcMemoryModel m{b, word_bits, access_ns, ports_per_bank};
        if (m.matchesLink(flit_bits, link_rate_bps))
            return b;
    }
    mmr_fatal("no feasible bank count sustains ", link_rate_bps,
              " b/s with ", word_bits, "-bit words at ", access_ns, " ns");
}

// Slots are raw mapped memory: a flit lands there by plain copy.
static_assert(std::is_trivially_copyable_v<Flit> &&
              std::is_trivially_destructible_v<Flit>);

VcMemory::VcMemory(unsigned nvcs, unsigned per_vc_depth)
    : vcs(nvcs), perVcDepth(per_vc_depth), flitsAvail(nvcs)
{
    mmr_assert(nvcs > 0, "VC memory needs at least one VC");
    mmr_assert(per_vc_depth > 0, "per-VC depth must be positive");
    // The paper's VC memory is a fixed-size RAM (§3.2): reserve every
    // slot up front so the data path never allocates, but as a fresh
    // private mapping, so a page costs host memory only once a flit
    // lands in it.
    const std::size_t slots = std::bit_ceil(std::size_t{per_vc_depth});
    const std::size_t bytes = nvcs * slots * sizeof(Flit);
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    slab = std::unique_ptr<Flit, FlitSlabUnmap>(static_cast<Flit *>(p),
                                                FlitSlabUnmap{bytes});
    // Huge pages would back a whole 2 MiB run on its first flit.  Only
    // advice: if it fails, pages cost more memory, never correctness.
    madvise(p, bytes, MADV_NOHUGEPAGE);
    for (unsigned v = 0; v < nvcs; ++v)
        vcs[v].setFifo(FlitFifo(slab.get() + v, nvcs, slots));
}

void
FlitSlabUnmap::operator()(Flit *p) const
{
    munmap(p, bytes);
}

void
VcMemory::auditOccupancy() const
{
    std::size_t total = 0;
    for (std::size_t v = 0; v < vcs.size(); ++v) {
        const std::size_t d = vcs[v].depth();
        total += d;
        if (d > perVcDepth) {
            mmr_invariant_violated("vc-occupancy", "VC ", v, " holds ",
                                   d, " flits, above the depth limit ",
                                   perVcDepth);
        }
        if (flitsAvail.test(v) != (d > 0)) {
            mmr_invariant_violated(
                "vc-occupancy", "VC ", v, " has depth ", d,
                " but its flits-available bit is ",
                flitsAvail.test(v) ? "set" : "clear");
        }
    }
    if (total != occupied) {
        mmr_invariant_violated("vc-occupancy", "occupancy counter ",
                               occupied, " != summed FIFO depths ",
                               total);
    }
}

void
VcMemory::auditLegality() const
{
    for (std::size_t v = 0; v < vcs.size(); ++v) {
        const VcState &s = vcs[v];
        if (!s.bound()) {
            if (!s.empty()) {
                mmr_invariant_violated("vc-legality", "free VC ", v,
                                       " still buffers ", s.depth(),
                                       " flits");
            }
            if (s.mapped()) {
                mmr_invariant_violated("vc-legality", "free VC ", v,
                                       " still maps to output (",
                                       s.outPort(), ",", s.outVc(), ")");
            }
            if (s.pendingGrants() != 0) {
                mmr_invariant_violated("vc-legality", "free VC ", v,
                                       " has ", s.pendingGrants(),
                                       " pending grants");
            }
        }
        if (s.pendingGrants() > s.depth()) {
            mmr_invariant_violated("vc-legality", "VC ", v, " has ",
                                   s.pendingGrants(),
                                   " pending grants but only ",
                                   s.depth(), " buffered flits");
        }
    }
}

} // namespace mmr
