/**
 * @file
 * Abstract flit source.
 *
 * A traffic source is polled once per flit cycle and reports how many
 * flits (packet == flit for VCT traffic, §3.4) become ready in that
 * cycle.  Sources are pure generators: queueing, policing and
 * injection live in the network interface / harness so the same
 * models drive single-router and network experiments.
 */

#ifndef MMR_TRAFFIC_SOURCE_HH
#define MMR_TRAFFIC_SOURCE_HH

#include "base/types.hh"
#include "traffic/rates.hh"

namespace mmr
{

class TrafficSource
{
  public:
    virtual ~TrafficSource() = default;

    /** Number of flits that become ready during cycle @p now. */
    virtual unsigned arrivals(Cycle now) = 0;

    /**
     * Earliest cycle (possibly fractional) at which this source can
     * next produce an arrival or change state.  A harness may skip
     * polling arrivals() until that cycle: sources guarantee that
     * polls strictly before the due cycle return 0 and have no side
     * effects (no state change, no RNG draw), so skipping them is
     * bit-exact with polling every cycle.
     */
    virtual double nextDueCycle() const = 0;

    /** Long-run average rate in bits/s. */
    virtual double meanRateBps() const = 0;

    /** Peak rate in bits/s (== mean for CBR). */
    virtual double peakRateBps() const { return meanRateBps(); }

    virtual TrafficClass trafficClass() const = 0;
};

} // namespace mmr

#endif // MMR_TRAFFIC_SOURCE_HH
