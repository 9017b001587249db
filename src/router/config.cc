#include "router/config.hh"

#include "base/logging.hh"

namespace mmr
{

std::string
to_string(SchedulerKind k)
{
    switch (k) {
      case SchedulerKind::BiasedPriority:
        return "biased";
      case SchedulerKind::FixedPriority:
        return "fixed";
      case SchedulerKind::AgePriority:
        return "age";
      case SchedulerKind::OutputDriven:
        return "output-driven";
      case SchedulerKind::Autonet:
        return "autonet";
      case SchedulerKind::Islip:
        return "islip";
      case SchedulerKind::Perfect:
        return "perfect";
    }
    return "?";
}

SchedulerKind
schedulerKindFromString(const std::string &s)
{
    if (s == "biased")
        return SchedulerKind::BiasedPriority;
    if (s == "fixed")
        return SchedulerKind::FixedPriority;
    if (s == "age")
        return SchedulerKind::AgePriority;
    if (s == "output-driven" || s == "output")
        return SchedulerKind::OutputDriven;
    if (s == "autonet" || s == "dec" || s == "pim")
        return SchedulerKind::Autonet;
    if (s == "islip")
        return SchedulerKind::Islip;
    if (s == "perfect")
        return SchedulerKind::Perfect;
    mmr_fatal("unknown scheduler kind '", s,
              "' (want biased|fixed|age|output-driven|autonet|islip|"
              "perfect)");
}

std::string
to_string(CrossbarOrg o)
{
    switch (o) {
      case CrossbarOrg::Multiplexed:
        return "multiplexed";
      case CrossbarOrg::PartiallyDemuxed:
        return "partially-demuxed";
      case CrossbarOrg::FullyDemuxed:
        return "fully-demuxed";
    }
    return "?";
}

void
RouterConfig::validate() const
{
    if (numPorts == 0 || numPorts > 1024)
        mmr_fatal("numPorts must be in [1, 1024], got ", numPorts);
    if (vcsPerPort == 0)
        mmr_fatal("vcsPerPort must be positive");
    if (linkRateBps <= 0.0)
        mmr_fatal("linkRateBps must be positive");
    if (flitBits == 0 || flitBits % 8 != 0)
        mmr_fatal("flitBits must be a positive multiple of 8");
    if (vcBufferFlits == 0)
        mmr_fatal("vcBufferFlits must be positive");
    if (roundFactorK < 1)
        mmr_fatal("roundFactorK must be >= 1 (paper: K > 1 preferred)");
    if (candidates < 1 || candidates > vcsPerPort)
        mmr_fatal("candidates must be in [1, vcsPerPort]");
    if (concurrencyFactor < 1.0)
        mmr_fatal("concurrencyFactor must be >= 1");
    if (bestEffortReserve < 0.0 || bestEffortReserve >= 1.0)
        mmr_fatal("bestEffortReserve must be in [0, 1)");
    if (memBanks == 0)
        mmr_fatal("memBanks must be positive");
}

} // namespace mmr
