#include "traffic/trace_source.hh"

#include <cmath>
#include <fstream>
#include <sstream>

#include "base/logging.hh"

namespace mmr
{

std::vector<std::uint64_t>
loadFrameTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        mmr_fatal("cannot open trace file '", path, "'");
    std::vector<std::uint64_t> trace;
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream iss(line);
        std::uint64_t bits = 0;
        if (!(iss >> bits))
            continue; // blank or comment-only line
        std::string extra;
        if (iss >> extra)
            mmr_fatal("trace '", path, "' line ", lineno,
                      ": expected one frame size, got trailing '",
                      extra, "'");
        if (bits == 0)
            mmr_fatal("trace '", path, "' line ", lineno,
                      ": zero-size frame");
        trace.push_back(bits);
    }
    if (trace.empty())
        mmr_fatal("trace '", path, "' contains no frames");
    return trace;
}

void
writeSyntheticTrace(const std::string &path, const VbrProfile &profile,
                    unsigned frames, Rng &rng)
{
    mmr_assert(frames > 0, "trace needs at least one frame");
    std::ofstream out(path);
    if (!out)
        mmr_fatal("cannot write trace file '", path, "'");
    out << "# synthetic MPEG-like trace: " << frames << " frames, "
        << profile.meanRateBps / kMbps << " Mb/s mean, GOP "
        << profile.gopPattern << "\n";

    // Reproduce the GOP model's per-type frame-size statistics.
    unsigned n_i = 0, n_p = 0, n_b = 0;
    for (char c : profile.gopPattern) {
        if (c == 'I')
            ++n_i;
        else if (c == 'P')
            ++n_p;
        else
            ++n_b;
    }
    const double norm = (n_i * profile.iScale + n_p * profile.pScale +
                         n_b * profile.bScale) /
                        static_cast<double>(profile.gopPattern.size());
    const double mean_bits =
        profile.meanRateBps / profile.framesPerSecond;
    for (unsigned f = 0; f < frames; ++f) {
        const char type =
            profile.gopPattern[f % profile.gopPattern.size()];
        const double scale = type == 'I'   ? profile.iScale
                             : type == 'P' ? profile.pScale
                                           : profile.bScale;
        const double mean = mean_bits * scale / norm;
        const double mu =
            std::log(mean) - profile.sigma * profile.sigma / 2.0;
        const double bits = rng.lognormal(mu, profile.sigma);
        out << static_cast<std::uint64_t>(
                   std::max(1.0, std::llround(bits) * 1.0))
            << "\n";
    }
}

TraceVbrSource::TraceVbrSource(std::vector<std::uint64_t> frame_bits,
                               double fps, double peak_rate_bps,
                               double link_rate_bps, unsigned flit_bits,
                               Rng &rng)
    : trace(std::move(frame_bits)), peakBps(peak_rate_bps),
      flitBits(flit_bits)
{
    mmr_assert(!trace.empty(), "empty frame trace");
    mmr_assert(fps > 0.0, "frame rate must be positive");
    mmr_assert(peak_rate_bps > 0.0 && peak_rate_bps <= link_rate_bps,
               "peak rate must fit the link");

    double total_bits = 0.0;
    for (std::uint64_t bits : trace)
        total_bits += static_cast<double>(bits);
    meanBps = total_bits / static_cast<double>(trace.size()) * fps;

    const double cycles_per_second = link_rate_bps / flitBits;
    frameInterval = cycles_per_second / fps;
    minEmitPeriod = interArrivalCycles(peakBps, link_rate_bps);
    nextFrameStart = rng.uniform() * frameInterval;
}

void
TraceVbrSource::startNextFrame(double at_cycle)
{
    const std::uint64_t bits = trace[traceIndex];
    traceIndex = (traceIndex + 1) % trace.size();
    frameFlits = std::max(
        1u, static_cast<unsigned>((bits + flitBits - 1) / flitBits));
    flitsEmitted = 0;
    emitPeriod = std::max(frameInterval / frameFlits, minEmitPeriod);
    // Monotone emission clock: if the previous (peak-capped) frame
    // overran its slot, the new frame resumes where it left off
    // instead of bursting a catch-up clump above the peak rate.
    nextEmit = std::max(at_cycle, nextEmit);
    frameDeadline = at_cycle + frameInterval;
    frameActive = true;
}

unsigned
TraceVbrSource::arrivals(Cycle now)
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
