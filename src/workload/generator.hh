/**
 * @file
 * Session-level workload generator: who arrives, how big, how long.
 *
 * One SessionGenerator owns every random draw of the churn workload —
 * arrival times (ArrivalSchedule), rate class, endpoints and holding
 * time — each on its own seed-derived sub-RNG so that draw streams
 * never interleave: adding a mix class cannot shift the holding-time
 * sequence, and none of it shares state with network or fault RNGs.
 * That independence is what makes churn runs digest-identical between
 * the serial and the sharded network core.
 *
 * The rate-class mix defaults to a media-like weighting of the paper's
 * §5 rate ladder (64 Kb/s voice up to 20 Mb/s video); entries may be
 * flagged VBR, in which case the session declares peak = peakToMean x
 * mean through the EPB admission path.
 */

#ifndef MMR_WORKLOAD_GENERATOR_HH
#define MMR_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"
#include "workload/arrival.hh"

namespace mmr
{

/** One rate class of the session mix. */
struct MixEntry
{
    double rateBps = 0.0; ///< CBR rate / VBR permanent (mean) rate
    double weight = 1.0;  ///< relative share of arrivals
    bool vbr = false;     ///< VBR session: declares peakToMean x mean
};

/** Generator half of the churn configuration (everything a
 * SessionGenerator needs; the engine adds pool and timeout knobs). */
struct SessionWorkloadSpec
{
    /** Base session arrival rate, sessions per 1000 flit cycles. */
    double arrivalsPer1k = 50.0;

    /** Mean session holding time (exponential), in flit cycles. */
    Cycle holdingMeanCycles = 2000;

    FlashCrowd flash;
    DiurnalCurve diurnal;

    /** Rate-class mix; empty selects defaultSessionMix(). */
    std::vector<MixEntry> mix;

    /** Declared peak/mean ratio for VBR mix entries (§4.2). */
    double peakToMean = 2.0;
    /** Priority handed to VBR sessions at setup. */
    int vbrPriority = 1;
};

/** The default mix: a media-weighted subset of paperRateLadder()
 * (voice-heavy low end, a few video rates). */
const std::vector<MixEntry> &defaultSessionMix();

/**
 * Parse "64k=2,1.54m=1,vbr:5m=1" into mix entries: RATE=WEIGHT pairs,
 * rates with k/m/g suffixes, "vbr:" prefix flags a VBR class.  Panics
 * on malformed specs.
 */
std::vector<MixEntry> parseSessionMix(const std::string &spec);

/** Parse "64k" / "1.54m" / "2g" / "250000" into bits per second: a
 * finite positive number with an optional k/m/g suffix, else fatal. */
double parseRateBps(const std::string &token);

/** Parse "at=10000,ramp=2000,hold=4000,peak=3" (missing keys keep
 * defaults; fatal on unknown keys, on cycle counts that are not whole
 * numbers and on a negative or non-finite peak). */
FlashCrowd parseFlashCrowd(const std::string &spec);

/** Parse "period=20000,amp=0.5": a whole-number period and an
 * amplitude in [0, 1), else fatal. */
DiurnalCurve parseDiurnal(const std::string &spec);

class SessionGenerator
{
  public:
    /** Everything known about a session at its arrival instant. */
    struct Draw
    {
        NodeId src = 0;
        NodeId dst = 0;
        double rateBps = 0.0;
        bool vbr = false;
        Cycle holdCycles = 1;
    };

    SessionGenerator(const SessionWorkloadSpec &spec, unsigned nodes,
                     Cycle horizon, std::uint64_t seed);

    /** Sessions arriving during cycle @p now (consume in order). */
    unsigned arrivals(Cycle now) { return schedule.take(now); }

    /** Stop producing arrivals (drain phase). */
    void shutOff() { schedule.shutOff(); }

    /** Class, endpoints and holding time of the next arrival. */
    Draw draw();

    const std::vector<MixEntry> &mix() const { return classes; }

  private:
    std::vector<MixEntry> classes;
    std::vector<double> cumWeight; ///< prefix sums for the class pick
    double totalWeight = 0.0;
    double meanHold;
    unsigned numNodes;
    ArrivalSchedule schedule;
    Rng mixRng;     ///< rate-class picks
    Rng holdRng;    ///< holding-time draws
    Rng placeRng;   ///< endpoint picks
};

} // namespace mmr

#endif // MMR_WORKLOAD_GENERATOR_HH
