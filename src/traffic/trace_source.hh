/**
 * @file
 * Trace-driven VBR source.
 *
 * The MMR's follow-up evaluations drive the router with recorded
 * MPEG-2 video traces.  This source replays such a trace: a text file
 * with one frame size per line (in bits; '#' starts a comment), played
 * at a fixed frame rate and looped when exhausted.  Emission within a
 * frame slot follows the same discipline as the synthetic GOP model —
 * spread across the slot, capped at the declared peak rate — so the
 * two sources are drop-in interchangeable and can cross-validate each
 * other (see writeSyntheticTrace / tests).
 */

#ifndef MMR_TRAFFIC_TRACE_SOURCE_HH
#define MMR_TRAFFIC_TRACE_SOURCE_HH

#include <string>
#include <vector>

#include "base/rng.hh"
#include "traffic/source.hh"
#include "traffic/vbr_source.hh"

namespace mmr
{

/** Parse a frame-size trace (bits per frame, one per line). */
std::vector<std::uint64_t> loadFrameTrace(const std::string &path);

/** Write a synthetic trace generated from the GOP model, so the
 * trace-driven path can be exercised without proprietary data. */
void writeSyntheticTrace(const std::string &path,
                         const VbrProfile &profile, unsigned frames,
                         Rng &rng);

class TraceVbrSource : public TrafficSource
{
  public:
    /**
     * @param frame_bits the trace (frame sizes in bits)
     * @param fps playback rate
     * @param peak_rate_bps declared peak for admission and policing
     * @param link_rate_bps physical link rate
     * @param flit_bits flit size
     * @param rng draws the starting phase
     */
    TraceVbrSource(std::vector<std::uint64_t> frame_bits, double fps,
                   double peak_rate_bps, double link_rate_bps,
                   unsigned flit_bits, Rng &rng);

    unsigned arrivals(Cycle now) override;

    double
    nextDueCycle() const override
    {
        return frameActive ? nextEmit : nextFrameStart;
    }

    double meanRateBps() const override { return meanBps; }
    double peakRateBps() const override { return peakBps; }
    TrafficClass trafficClass() const override
    {
        return TrafficClass::VBR;
    }

    std::size_t traceLength() const { return trace.size(); }
    double frameIntervalCycles() const { return frameInterval; }

    /** Deadline of the frame currently being emitted (cycles). */
    double currentFrameDeadline() const { return frameDeadline; }

  private:
    void startNextFrame(double at_cycle);

    std::vector<std::uint64_t> trace;
    double meanBps;
    double peakBps;
    unsigned flitBits;

    double frameInterval;
    double minEmitPeriod;
    double emitPeriod = 0.0;
    std::size_t traceIndex = 0;
    unsigned frameFlits = 0;
    unsigned flitsEmitted = 0;
    double nextFrameStart = 0.0;
    double nextEmit = 0.0;
    double frameDeadline = 0.0;
    bool frameActive = false;
};

} // namespace mmr

#endif // MMR_TRAFFIC_TRACE_SOURCE_HH
