/**
 * @file
 * Best-effort datagram sources (§2, §3.4).
 *
 * A Poisson source provides the classical best-effort background.
 * Packet size equals flit size (§3.4), so one arrival is one flit.
 */

#ifndef MMR_TRAFFIC_BESTEFFORT_SOURCE_HH
#define MMR_TRAFFIC_BESTEFFORT_SOURCE_HH

#include "base/rng.hh"
#include "traffic/source.hh"

namespace mmr
{

/** Poisson flit arrivals at a given mean rate. */
class PoissonSource : public TrafficSource
{
  public:
    PoissonSource(double rate_bps, double link_rate_bps, Rng &rng);

    unsigned arrivals(Cycle now) override;
    double nextDueCycle() const override { return nextArrival; }
    double meanRateBps() const override { return rateBps; }
    TrafficClass trafficClass() const override
    {
        return TrafficClass::BestEffort;
    }

  private:
    double rateBps;
    double meanGap;      ///< mean inter-arrival in flit cycles
    double nextArrival;
    Rng *rng;
};

} // namespace mmr

#endif // MMR_TRAFFIC_BESTEFFORT_SOURCE_HH
