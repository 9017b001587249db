#include "traffic/besteffort_source.hh"

#include "base/logging.hh"

namespace mmr
{

PoissonSource::PoissonSource(double rate_bps, double link_rate_bps,
                             Rng &rng_, TrafficClass cls)
    : rateBps(rate_bps),
      meanGap(interArrivalCycles(rate_bps, link_rate_bps)), rng(&rng_),
      klass(cls)
{
    mmr_assert(meanGap >= 1.0, "Poisson rate exceeds link rate");
    nextArrival = rng->exponential(meanGap);
}

unsigned
PoissonSource::arrivals(Cycle now)
{
    const double t = static_cast<double>(now);
    unsigned n = 0;
    while (nextArrival <= t) {
        ++n;
        nextArrival += rng->exponential(meanGap);
    }
    return n;
}

} // namespace mmr
