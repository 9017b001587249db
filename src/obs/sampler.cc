#include "obs/sampler.hh"

#include <ostream>

#include "base/logging.hh"

namespace mmr
{

StatsSampler::StatsSampler(const StatsRegistry &reg, Cycle period_,
                           const std::vector<std::string> &patterns,
                           std::size_t capacity)
    : registry(reg), period(period_), cap(capacity)
{
    mmr_assert(period >= 1, "sample period must be >= 1 cycle");
    mmr_assert(cap >= 1, "sampler needs capacity for at least one row");
    selected = registry.select(patterns);
    colNames.reserve(selected.size());
    for (std::size_t i : selected)
        colNames.push_back(registry.entry(i).name);
}

void
StatsSampler::sampleNow(Cycle now)
{
    std::vector<double> row;
    row.reserve(selected.size());
    for (std::size_t i : selected)
        row.push_back(registry.entry(i).probe());

    if (rows.size() < cap) {
        cycles.push_back(now);
        rows.push_back(std::move(row));
    } else {
        cycles[head] = now;
        rows[head] = std::move(row);
        head = (head + 1) % cap;
        ++dropped;
    }
    ++taken;
}

void
StatsSampler::advance(Cycle now)
{
    if (now % period == 0)
        sampleNow(now);
}

Cycle
StatsSampler::sampleCycle(std::size_t r) const
{
    mmr_assert(r < rows.size(), "sample row out of range");
    return cycles[(head + r) % rows.size()];
}

double
StatsSampler::value(std::size_t r, std::size_t c) const
{
    mmr_assert(r < rows.size(), "sample row out of range");
    mmr_assert(c < colNames.size(), "sample column out of range");
    return rows[(head + r) % rows.size()][c];
}

void
StatsSampler::dumpCsv(std::ostream &os) const
{
    os << "cycle";
    for (const std::string &c : colNames)
        os << ',' << c;
    os << '\n';
    for (std::size_t r = 0; r < rows.size(); ++r) {
        os << sampleCycle(r);
        for (std::size_t c = 0; c < colNames.size(); ++c)
            os << ',' << obs::formatNumber(value(r, c));
        os << '\n';
    }
}

void
StatsSampler::dumpJson(std::ostream &os) const
{
    os << "{\n  \"period\": " << period << ",\n  \"columns\": [";
    for (std::size_t c = 0; c < colNames.size(); ++c)
        os << (c ? ", " : "") << '"' << colNames[c] << '"';
    os << "],\n  \"kinds\": [";
    for (std::size_t c = 0; c < selected.size(); ++c) {
        os << (c ? ", " : "") << '"'
           << (registry.entry(selected[c]).kind == StatKind::Counter
                   ? "counter"
                   : "gauge")
           << '"';
    }
    os << "],\n  \"dropped_samples\": " << dropped
       << ",\n  \"samples\": [";
    for (std::size_t r = 0; r < rows.size(); ++r) {
        os << (r ? ",\n    " : "\n    ") << '[' << sampleCycle(r);
        for (std::size_t c = 0; c < colNames.size(); ++c)
            os << ", " << obs::formatNumber(value(r, c));
        os << ']';
    }
    os << "\n  ]\n}\n";
}

} // namespace mmr
