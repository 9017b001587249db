#include "metrics/recorder.hh"

#include <algorithm>
#include <cmath>

namespace mmr
{

void
ConnectionRecorder::record(double delay_cycles, bool measured)
{
    ++flits;
    if (measured) {
        delayStat.add(delay_cycles);
        if (haveLast)
            jitterStat.add(std::fabs(delay_cycles - lastDelay));
    }
    lastDelay = delay_cycles;
    haveLast = true;
}

// mmr-lint: allow(hot-path-alloc) grows once per newly observed
// connection (pool append / index insert); steady-state measurement
// finds existing records only.
ConnectionRecorder &
MetricsRecorder::slot(ConnId conn)
{
    if (const std::uint32_t *at = index.find(conn))
        return pool[*at];
    std::uint32_t at;
    if (freeRecords.empty()) {
        at = static_cast<std::uint32_t>(pool.size());
        pool.emplace_back();
    } else {
        at = freeRecords.back();
        freeRecords.pop_back();
    }
    index.insert(conn, at);
    return pool[at];
}

void
MetricsRecorder::reserve(std::size_t n)
{
    index.reserve(n);
    pool.reserve(n);
    freeRecords.reserve(n);
}

void
MetricsRecorder::recordDeparture(ConnId conn, Cycle now,
                                 double delay_cycles,
                                 TrafficClass klass,
                                 const StageSample *stages)
{
    const bool measured = measuring(now);
    slot(conn).record(delay_cycles, measured);
    if (!measured)
        return;
    delaySketch.add(delay_cycles);

    const auto k = static_cast<std::size_t>(klass);
    const auto delay = static_cast<std::uint64_t>(
        delay_cycles > 0.0 ? delay_cycles : 0.0);
    classDelayHist[k].record(delay);

    QosCounters &q = qosByClass[k];
    if (q.budgetCycles > 0) {
        ++q.flits;
        if (delay > q.budgetCycles) {
            ++q.violations;
            const Cycle excess = delay - q.budgetCycles;
            if (excess > q.worstExcessCycles)
                q.worstExcessCycles = excess;
        }
    }

    if (stages != nullptr) {
        stageHist[static_cast<std::size_t>(LatencyStage::SourceQueue)]
            .record(stages->sourceQueue);
        stageHist[static_cast<std::size_t>(LatencyStage::VcResidency)]
            .record(stages->vcResidency);
        stageHist[static_cast<std::size_t>(LatencyStage::ArbWait)]
            .record(stages->arbWait);
        stageHist[static_cast<std::size_t>(
                      LatencyStage::SwitchTraversal)]
            .record(stages->switchTraversal);
    }
}

void
MetricsRecorder::recordLinkTransit(Cycle transit_cycles, Cycle now)
{
    if (!measuring(now))
        return;
    stageHist[static_cast<std::size_t>(LatencyStage::LinkTransit)]
        .record(transit_cycles);
}

void
MetricsRecorder::setQosBudget(TrafficClass klass, Cycle budget_cycles)
{
    qosByClass[static_cast<std::size_t>(klass)].budgetCycles =
        budget_cycles;
}

void
MetricsRecorder::recordOutputSlot(bool used, Cycle now)
{
    if (!measuring(now))
        return;
    if (used)
        outputSlots.addHit();
    else
        outputSlots.addMiss();
}

void
MetricsRecorder::recordOutputSlots(unsigned flits, unsigned ports,
                                   Cycle now)
{
    if (!measuring(now))
        return;
    outputSlots.addHit(flits);
    if (ports > flits)
        outputSlots.addMiss(ports - flits);
}

void
MetricsRecorder::releaseConnection(ConnId conn)
{
    const std::uint32_t *at = index.find(conn);
    if (at == nullptr)
        return;
    ConnectionRecorder &rec = pool[*at];
    retiredDelay.merge(rec.delay());
    retiredJitter.merge(rec.jitter());
    rec = ConnectionRecorder{};
    freeRecords.push_back(*at);
    index.erase(conn);
    ++retiredConns;
}

double
MetricsRecorder::meanDelayCycles() const
{
    // Merge in sorted connection order: StreamStat::merge is floating
    // point and therefore not associative, so the table's slot order
    // must not leak into reported results (determinism audit).
    // Retired connections were folded in release order, which callers
    // keep deterministic; they seed the aggregate.
    StreamStat all = retiredDelay;
    for (ConnId conn : connections())
        all.merge(connection(conn)->delay());
    return all.mean();
}

double
MetricsRecorder::meanJitterCycles() const
{
    StreamStat all = retiredJitter;
    for (ConnId conn : connections())
        all.merge(connection(conn)->jitter());
    return all.mean();
}

std::uint64_t
MetricsRecorder::measuredFlits() const
{
    // Released records are reset, so the whole pool can be summed.
    std::uint64_t n = retiredDelay.count();
    for (const ConnectionRecorder &rec : pool)
        n += rec.delay().count();
    return n;
}

const ConnectionRecorder *
MetricsRecorder::connection(ConnId conn) const
{
    const std::uint32_t *at = index.find(conn);
    return at != nullptr ? &pool[*at] : nullptr;
}

std::vector<ConnId>
MetricsRecorder::connections() const
{
    // Slot order here, sorted below: the aggregates above merge in
    // ascending id order (the determinism audit relies on it).
    std::vector<ConnId> ids;
    ids.reserve(index.size());
    index.forEach([&](ConnId conn, std::uint32_t) { ids.push_back(conn); });
    std::sort(ids.begin(), ids.end());
    return ids;
}

} // namespace mmr
