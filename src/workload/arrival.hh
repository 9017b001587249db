/**
 * @file
 * Session arrival process: non-homogeneous Poisson with a piecewise-
 * constant rate schedule.
 *
 * The MMR paper evaluates the router under steady sources; production
 * routers see *populations* — sessions arriving, holding and
 * departing.  The arrival side of that population model is a Poisson
 * process whose rate λ(t) is shaped by two standard load patterns:
 *
 *  - a flash crowd: λ ramps linearly to peakFactor x base over
 *    rampCycles, holds, and decays back (news event, mass call-in);
 *  - a diurnal curve: λ modulated by 1 + amplitude * sin(2πt/period)
 *    (day-night load swing).
 *
 * Both are compiled into one piecewise-constant schedule, and arrivals
 * are drawn by exact inversion: each unit-exponential "work" draw is
 * integrated through λ(t) segment by segment, so the process is
 * exact for the compiled schedule (no per-cycle thinning loop) and
 * deterministic in the seed alone — the draws live on their own
 * seed-derived sub-RNG, never shared with network or fault RNGs, so
 * churn runs digest-identically serial and sharded.
 */

#ifndef MMR_WORKLOAD_ARRIVAL_HH
#define MMR_WORKLOAD_ARRIVAL_HH

#include <cstdint>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"

namespace mmr
{

/** Flash-crowd overlay on the base arrival rate (inactive at ramp 0
 * or peakFactor <= 1). */
struct FlashCrowd
{
    Cycle at = 0;            ///< ramp start cycle
    Cycle rampCycles = 0;    ///< linear rise (and fall) duration
    Cycle holdCycles = 0;    ///< dwell at the peak
    double peakFactor = 1.0; ///< λ multiplier at the peak
};

/** Sinusoidal day-night modulation (inactive at period 0). */
struct DiurnalCurve
{
    Cycle period = 0;       ///< cycles per full day-night swing
    double amplitude = 0.0; ///< in [0, 1): λ x (1 + a sin(2πt/T))
};

class ArrivalSchedule
{
  public:
    /**
     * Compile λ(t) = base x flash(t) x diurnal(t) into a piecewise-
     * constant schedule over [0, horizon); the last segment's rate
     * persists beyond the horizon.  The flash ramp and the diurnal
     * sine are stepped at @p steps points per feature (ramp / period)
     * — piecewise-constant approximation, exact sampling within it.
     *
     * @param base_per_cycle base arrival rate in sessions per cycle
     */
    ArrivalSchedule(double base_per_cycle, const FlashCrowd &flash,
                    const DiurnalCurve &diurnal, Cycle horizon,
                    std::uint64_t seed, unsigned steps = 16);

    /** Arrivals due during cycle @p now (i.e. in [now, now+1)).
     * Cycles must be consumed in nondecreasing order. */
    unsigned take(Cycle now);

    /** Stop producing arrivals (drain phase). */
    void shutOff() { off = true; }

    /** Compiled rate at cycle @p t (sessions/cycle) — for tests and
     * schedule dumps. */
    double rateAt(Cycle t) const;

    /** Total arrivals drawn so far. */
    std::uint64_t drawn() const { return count; }

  private:
    /** Advance nextAt past the current arrival: integrate λ forward
     * until the next unit-exponential work amount is exhausted. */
    void drawNext();

    /** Index of the segment containing time @p t. */
    std::size_t segmentOf(double t) const;

    std::vector<Cycle> starts; ///< segment start cycles (starts[0]==0)
    std::vector<double> rates; ///< sessions/cycle per segment
    Rng rng;
    double nextAt = 0.0; ///< arrival time being offered (cycles)
    bool off = false;
    std::uint64_t count = 0;
};

} // namespace mmr

#endif // MMR_WORKLOAD_ARRIVAL_HH
