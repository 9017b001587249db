#include "workload/generator.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/cli.hh"
#include "base/logging.hh"
#include "traffic/rates.hh"

namespace mmr
{

namespace
{

/** Split "k=v,k=v" into pairs; panics on entries without '='. */
std::vector<std::pair<std::string, std::string>>
splitKeyValues(const std::string &spec, const char *what)
{
    std::vector<std::pair<std::string, std::string>> out;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0)
            mmr_fatal("bad ", what, " entry '", item, "' in '", spec,
                      "' (expected key=value)");
        out.emplace_back(item.substr(0, eq), item.substr(eq + 1));
        pos = comma + 1;
    }
    return out;
}

} // namespace

double
parseRateBps(const std::string &token)
{
    mmr_assert(!token.empty(), "empty rate token");
    // A k/m/g suffix scales the number before it; anything else is
    // part of the number, which must then be plain bits/s.
    std::size_t digits = token.size() - 1;
    double scale = 1.0;
    switch (token.back()) {
      case 'k':
      case 'K':
        scale = kKbps;
        break;
      case 'm':
      case 'M':
        scale = kMbps;
        break;
      case 'g':
      case 'G':
        scale = kGbps;
        break;
      default:
        digits = token.size();
    }
    const double v =
        parseReal(token.substr(0, digits), "rate '" + token + "'", 0.0,
                  std::numeric_limits<double>::max() / scale);
    if (v == 0.0)
        mmr_fatal("rate '", token, "' must be positive");
    return v * scale;
}

const std::vector<MixEntry> &
defaultSessionMix()
{
    // Media-weighted subset of the §5 rate ladder: voice (64/128 Kb/s)
    // dominates session counts, T1 and compressed video fill the
    // middle, a thin tail of 20 Mb/s streams stresses admission.
    static const std::vector<MixEntry> kMix = {
        {64 * kKbps, 4.0, false},  {128 * kKbps, 3.0, false},
        {1.54 * kMbps, 2.0, false}, {2 * kMbps, 2.0, false},
        {5 * kMbps, 1.5, false},   {10 * kMbps, 1.0, false},
        {20 * kMbps, 0.5, false},
    };
    return kMix;
}

std::vector<MixEntry>
parseSessionMix(const std::string &spec)
{
    std::vector<MixEntry> mix;
    for (auto &[key, value] : splitKeyValues(spec, "mix")) {
        MixEntry e;
        std::string rate = key;
        if (rate.rfind("vbr:", 0) == 0) {
            e.vbr = true;
            rate = rate.substr(4);
        }
        e.rateBps = parseRateBps(rate);
        e.weight = parseReal(value, "mix weight for '" + key + "'", 0.0);
        if (e.weight == 0.0)
            mmr_fatal("mix weight for '", key, "' must be positive");
        mix.push_back(e);
    }
    if (mix.empty())
        mmr_fatal("empty mix spec");
    return mix;
}

FlashCrowd
parseFlashCrowd(const std::string &spec)
{
    FlashCrowd f;
    for (auto &[key, value] : splitKeyValues(spec, "flash-crowd")) {
        const std::string what = "flash-crowd key '" + key + "'";
        if (key == "at")
            f.at = parseCount(value, what);
        else if (key == "ramp")
            f.rampCycles = parseCount(value, what);
        else if (key == "hold")
            f.holdCycles = parseCount(value, what);
        else if (key == "peak")
            f.peakFactor = parseReal(value, what, 0.0);
        else
            mmr_fatal("unknown flash-crowd key '", key,
                      "' (at/ramp/hold/peak)");
    }
    return f;
}

DiurnalCurve
parseDiurnal(const std::string &spec)
{
    DiurnalCurve d;
    for (auto &[key, value] : splitKeyValues(spec, "diurnal")) {
        const std::string what = "diurnal key '" + key + "'";
        if (key == "period")
            d.period = parseCount(value, what);
        else if (key == "amp")
            d.amplitude = parseReal(value, what, 0.0, 1.0);
        else
            mmr_fatal("unknown diurnal key '", key, "' (period/amp)");
    }
    if (d.amplitude == 1.0)
        mmr_fatal("diurnal key 'amp' must be below 1 in '", spec, "'");
    return d;
}

SessionGenerator::SessionGenerator(const SessionWorkloadSpec &spec,
                                   unsigned nodes, Cycle horizon,
                                   std::uint64_t seed)
    : classes(spec.mix.empty() ? defaultSessionMix() : spec.mix),
      meanHold(static_cast<double>(
          std::max<Cycle>(1, spec.holdingMeanCycles))),
      numNodes(nodes),
      // Sub-RNG seeds: one fixed tweak per draw stream, so streams
      // are independent and adding draws to one never shifts another.
      schedule(spec.arrivalsPer1k / 1000.0, spec.flash, spec.diurnal,
               horizon, seed ^ 0xa221e5c4ed01eULL),
      mixRng(seed ^ 0xc1a55e5a7e0adULL),
      holdRng(seed ^ 0x401d7191e5a1eULL),
      placeRng(seed ^ 0x91ace3e2d0175ULL)
{
    mmr_assert(nodes >= 2, "session workload needs >= 2 nodes");
    cumWeight.reserve(classes.size());
    for (const MixEntry &e : classes) {
        totalWeight += e.weight;
        cumWeight.push_back(totalWeight);
    }
}

SessionGenerator::Draw
SessionGenerator::draw()
{
    Draw d;
    const double pick = mixRng.uniform(0.0, totalWeight);
    const auto it =
        std::upper_bound(cumWeight.begin(), cumWeight.end(), pick);
    const auto cls = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cumWeight.begin(),
                                 static_cast<std::ptrdiff_t>(
                                     classes.size() - 1)));
    d.rateBps = classes[cls].rateBps;
    d.vbr = classes[cls].vbr;

    const double hold = holdRng.exponential(meanHold);
    d.holdCycles = std::max<Cycle>(1, static_cast<Cycle>(hold));

    d.src = static_cast<NodeId>(placeRng.below(numNodes));
    d.dst = static_cast<NodeId>(placeRng.below(numNodes - 1));
    if (d.dst >= d.src)
        ++d.dst;
    return d;
}

} // namespace mmr
