/**
 * @file
 * Variable bit rate source: a synthetic MPEG-like GOP model (§2, §4).
 *
 * The paper's follow-up work evaluates the MMR with MPEG-2 video
 * traces; those traces are not available here, so this model
 * synthesizes the properties that matter to bandwidth allocation and
 * link scheduling:
 *
 *  - frames arrive at a fixed frame rate (e.g. 25/s, jitter-sensitive),
 *  - frame sizes follow a lognormal distribution whose mean depends on
 *    the frame type in a repeating GOP pattern (I >> P > B),
 *  - within a frame interval the source emits flits evenly but never
 *    above the declared peak rate,
 *  - the source reports permanent (mean) and peak rates for the VBR
 *    admission registers (§4.2).
 */

#ifndef MMR_TRAFFIC_VBR_SOURCE_HH
#define MMR_TRAFFIC_VBR_SOURCE_HH

#include <string>
#include <vector>

#include "base/rng.hh"
#include "traffic/source.hh"

namespace mmr
{

/** Parameters of the synthetic MPEG-like stream. */
struct VbrProfile
{
    double meanRateBps = 4 * kMbps;  ///< long-run (permanent) rate
    double peakToMean = 3.0;         ///< declared peak / mean ratio
    double framesPerSecond = 25.0;
    std::string gopPattern = "IBBPBBPBBPBB"; ///< repeating frame types
    double iScale = 3.0; ///< I-frame mean size relative to overall mean
    double pScale = 1.2; ///< P-frame mean size relative to overall mean
    double bScale = 0.6; ///< B-frame mean size relative to overall mean
    double sigma = 0.25; ///< lognormal shape (frame-size variability)
};

class VbrSource : public TrafficSource
{
  public:
    VbrSource(const VbrProfile &profile, double link_rate_bps,
              unsigned flit_bits, Rng &rng);

    unsigned arrivals(Cycle now) override;

    double
    nextDueCycle() const override
    {
        // Between frames nothing happens until the next frame slot;
        // within a frame the next event is the next flit emission.
        return frameActive ? nextEmit : nextFrameStart;
    }

    double meanRateBps() const override { return prof.meanRateBps; }
    double peakRateBps() const override
    {
        return prof.meanRateBps * prof.peakToMean;
    }
    TrafficClass trafficClass() const override
    {
        return TrafficClass::VBR;
    }

    /** Flits in the frame currently being transmitted (for tests). */
    unsigned currentFrameFlits() const { return frameFlits; }

    /** Frame interval in flit cycles. */
    double frameIntervalCycles() const { return frameInterval; }

    /**
     * Delivery deadline of the frame currently being emitted: a frame
     * is on time when all its flits arrive before the next frame slot
     * begins (the §4.3 discussion of aborting late video frames).
     * Zero until the first frame starts.
     */
    double currentFrameDeadline() const { return frameDeadline; }

  private:
    void startNextFrame(double at_cycle);

    VbrProfile prof;
    double linkRateBps;
    unsigned flitBits;
    Rng *rng;

    double frameInterval;   ///< flit cycles per frame slot
    double emitPeriod = 0;  ///< cycles between flit emissions
    double minEmitPeriod;   ///< floor implied by the peak rate
    std::size_t gopIndex = 0;
    unsigned frameFlits = 0;    ///< flits in the current frame
    unsigned flitsEmitted = 0;  ///< already emitted from current frame
    double nextFrameStart = 0;  ///< cycle the next frame begins
    double nextEmit = 0;        ///< cycle of the next flit emission
    bool frameActive = false;
    double frameDeadline = 0.0; ///< end of the current frame's slot
    double frameTypeMean[3];    ///< mean flits per frame for I/P/B
};

} // namespace mmr

#endif // MMR_TRAFFIC_VBR_SOURCE_HH
