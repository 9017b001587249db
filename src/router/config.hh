/**
 * @file
 * Router configuration: the quantitative design parameters of §2
 * (network size, link bandwidth, router degree, buffer size, number of
 * virtual channels) and the §4 scheduling knobs (K, candidate count,
 * arbitration scheme, concurrency factor).
 *
 * Defaults reproduce the §5 evaluation point: an 8x8 router with 256
 * virtual channels per input port, 1.24 Gb/s links and 128-bit flits.
 */

#ifndef MMR_ROUTER_CONFIG_HH
#define MMR_ROUTER_CONFIG_HH

#include <string>

#include "base/types.hh"

namespace mmr
{

/** Switch scheduling / arbitration scheme (§4.4, §5.1). */
enum class SchedulerKind
{
    BiasedPriority, ///< dynamic priority biasing (the MMR proposal)
    FixedPriority,  ///< static rate-derived priorities (baseline)
    AgePriority,    ///< raw waiting time — the classical aging scheme
    OutputDriven,   ///< output-driven biased arbitration (§4.4 debate)
    Autonet,        ///< Anderson et al. random iterative matching (DEC)
    Islip,          ///< round-robin iterative matching (extension)
    Perfect         ///< Nx-speedup switch: lower bound on delay/jitter
};

std::string to_string(SchedulerKind k);
SchedulerKind schedulerKindFromString(const std::string &s);

/** Crossbar organization (§3.3). */
enum class CrossbarOrg
{
    Multiplexed,          ///< P x P, the MMR choice
    PartiallyDemuxed,     ///< P*V x P
    FullyDemuxed          ///< P*V x P*V
};

std::string to_string(CrossbarOrg o);

struct RouterConfig
{
    unsigned numPorts = 8;        ///< router degree (NxN switch)
    unsigned vcsPerPort = 256;    ///< virtual channels per input link
    double linkRateBps = 1.24 * kGbps;
    unsigned flitBits = 128;
    unsigned vcBufferFlits = 64;  ///< per-VC buffer depth in flits
    unsigned roundFactorK = 2;    ///< round = K * vcsPerPort cycles
    unsigned candidates = 4;      ///< candidates per input port (1..8)
    unsigned schedIterations = 3; ///< iterations for PIM/iSLIP
    SchedulerKind scheduler = SchedulerKind::BiasedPriority;
    CrossbarOrg crossbar = CrossbarOrg::Multiplexed;
    double concurrencyFactor = 2.0; ///< VBR peak admission factor
    double bestEffortReserve = 0.0; ///< round fraction kept for BE
    unsigned memBanks = 8;        ///< VC memory interleave factor
    std::uint64_t seed = 1;       ///< router-local RNG seed

    /** Flit cycles per scheduling round (§4.1). */
    unsigned cyclesPerRound() const { return roundFactorK * vcsPerPort; }

    /** Physical duration of one flit cycle in nanoseconds. */
    double flitCycleNanos() const
    {
        return flitCycleNs(flitBits, linkRateBps);
    }

    /** Sanity-check the configuration; fatal on nonsense. */
    void validate() const;
};

} // namespace mmr

#endif // MMR_ROUTER_CONFIG_HH
