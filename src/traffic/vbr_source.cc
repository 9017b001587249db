#include "traffic/vbr_source.hh"

#include <cmath>

#include "base/logging.hh"

namespace mmr
{

VbrSource::VbrSource(const VbrProfile &profile, double link_rate_bps,
                     unsigned flit_bits, Rng &rng_)
    : prof(profile), linkRateBps(link_rate_bps), flitBits(flit_bits),
      rng(&rng_)
{
    mmr_assert(prof.meanRateBps > 0.0, "VBR mean rate must be positive");
    mmr_assert(prof.peakToMean >= 1.0, "peak rate below mean rate");
    mmr_assert(!prof.gopPattern.empty(), "empty GOP pattern");

    const double cycles_per_second = linkRateBps / flitBits;
    frameInterval = cycles_per_second / prof.framesPerSecond;
    minEmitPeriod = interArrivalCycles(peakRateBps(), linkRateBps);

    // Normalize per-type scales so the long-run mean matches the
    // declared permanent rate regardless of the GOP pattern.
    unsigned n_i = 0, n_p = 0, n_b = 0;
    for (char c : prof.gopPattern) {
        if (c == 'I')
            ++n_i;
        else if (c == 'P')
            ++n_p;
        else if (c == 'B')
            ++n_b;
        else
            mmr_fatal("GOP pattern may only contain I/P/B, got '", c, "'");
    }
    const double norm =
        (n_i * prof.iScale + n_p * prof.pScale + n_b * prof.bScale) /
        static_cast<double>(prof.gopPattern.size());
    const double mean_flits_per_frame =
        prof.meanRateBps / prof.framesPerSecond / flitBits;
    frameTypeMean[0] = mean_flits_per_frame * prof.iScale / norm;
    frameTypeMean[1] = mean_flits_per_frame * prof.pScale / norm;
    frameTypeMean[2] = mean_flits_per_frame * prof.bScale / norm;

    // Random phase so parallel streams do not emit I frames in sync.
    nextFrameStart = rng->uniform() * frameInterval;
}

void
VbrSource::startNextFrame(double at_cycle)
{
    const char type = prof.gopPattern[gopIndex];
    gopIndex = (gopIndex + 1) % prof.gopPattern.size();
    const double mean =
        frameTypeMean[type == 'I' ? 0 : (type == 'P' ? 1 : 2)];

    // Lognormal with the requested mean: mu = ln(mean) - sigma^2/2.
    const double mu = std::log(mean) - prof.sigma * prof.sigma / 2.0;
    const double size = rng->lognormal(mu, prof.sigma);
    frameFlits = std::max(1u, static_cast<unsigned>(std::lround(size)));
    flitsEmitted = 0;

    // Spread the frame across its interval, but never exceed the
    // declared peak rate (the policing contract of §4.2).  When the
    // previous frame overran its slot (it was itself peak-capped),
    // nextEmit still points past its final flit — starting from
    // max() keeps the emission clock monotone so the catch-up never
    // bursts above the peak.
    emitPeriod = std::max(frameInterval / frameFlits, minEmitPeriod);
    nextEmit = std::max(at_cycle, nextEmit);
    frameActive = true;
    frameDeadline = at_cycle + frameInterval;
}

unsigned
VbrSource::arrivals(Cycle now)
{
    const double t = static_cast<double>(now);
    unsigned n = 0;

    if (!frameActive && nextFrameStart <= t)
        startNextFrame(nextFrameStart);

    while (frameActive && nextEmit <= t) {
        ++n;
        ++flitsEmitted;
        nextEmit += emitPeriod;
        if (flitsEmitted >= frameFlits) {
            frameActive = false;
            nextFrameStart += frameInterval;
            if (nextFrameStart <= t)
                startNextFrame(nextFrameStart);
        }
    }
    return n;
}

} // namespace mmr
