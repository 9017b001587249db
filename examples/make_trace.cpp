/**
 * @file
 * Trace generator: writes a synthetic MPEG-like frame-size trace (one
 * frame size in bits per line) from the GOP model, for use with
 * `video_server --trace=...` or the TraceVbrSource API.  Real
 * recorded traces in the same format can be substituted directly.
 *
 * Run:  ./make_trace --out=video.trace --mbps=4 --frames=2000
 */

#include <cstdio>
#include <exception>

#include "base/cli.hh"
#include "base/rng.hh"
#include "traffic/trace_source.hh"

int
main(int argc, char **argv)
{
    using namespace mmr;
    try {
        Cli cli;
        cli.flag("out", "video.trace", "output file");
        cli.flag("mbps", "4", "mean rate (Mb/s)");
        cli.flag("fps", "25", "frames per second");
        cli.flag("frames", "2000", "number of frames");
        cli.flag("gop", "IBBPBBPBBPBB", "GOP pattern (I/P/B)");
        cli.flag("sigma", "0.25", "lognormal frame-size variability");
        cli.flag("seed", "1", "random seed");
        if (!cli.parse(argc, argv))
            return 0;

        VbrProfile prof;
        prof.meanRateBps = cli.real("mbps") * kMbps;
        prof.framesPerSecond = cli.real("fps");
        prof.gopPattern = cli.str("gop");
        prof.sigma = cli.real("sigma");
        Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));

        const auto frames = cli.count<unsigned>("frames");
        const std::string out = cli.str("out");
        writeSyntheticTrace(out, prof, frames, rng);

        // Round-trip sanity: reload and report the realized rate.
        const auto trace = loadFrameTrace(out);
        double total = 0.0;
        std::uint64_t biggest = 0;
        for (auto bits : trace) {
            total += static_cast<double>(bits);
            biggest = std::max(biggest, bits);
        }
        const double mean_bps =
            total / static_cast<double>(trace.size()) *
            prof.framesPerSecond;
        std::printf("wrote %s: %zu frames, %.2f Mb/s mean, largest "
                    "frame %.1f kbit\n", out.c_str(), trace.size(),
                    mean_bps / kMbps, biggest / 1000.0);
        std::printf("replay with: ./video_server --trace=%s\n",
                    out.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
