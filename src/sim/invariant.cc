#include "sim/invariant.hh"

#include <algorithm>
#include <cstdlib>
#include <optional>

namespace mmr
{

namespace invariant
{

namespace
{

/** Runtime override set through setEnabled(); empty = not overridden. */
std::optional<bool> runtimeOverride;

std::optional<bool>
envSetting()
{
    // Read the environment once per process: enabled() sits on the
    // every-cycle audit path, and getenv() is a linear scan of the
    // environment block.  Changing MMR_INVARIANTS after startup was
    // never supported — runtime toggling goes through setEnabled().
    static const std::optional<bool> cached = [] {
        const char *v = std::getenv("MMR_INVARIANTS");
        if (v == nullptr || *v == '\0')
            return std::optional<bool>{};
        return std::optional<bool>(
            !(v[0] == '0' || v[0] == 'n' || v[0] == 'N' ||
              v[0] == 'f' || v[0] == 'F'));
    }();
    return cached;
}

} // namespace

bool
compiledDefault()
{
#ifdef MMR_INVARIANTS_DEFAULT
    return MMR_INVARIANTS_DEFAULT != 0;
#else
    return true;
#endif
}

bool
enabled()
{
    if (runtimeOverride.has_value())
        return *runtimeOverride;
    if (const auto env = envSetting(); env.has_value())
        return *env;
    return compiledDefault();
}

void
setEnabled(bool on)
{
    runtimeOverride = on;
}

void
clearOverride()
{
    runtimeOverride.reset();
}

} // namespace invariant

void
InvariantChecker::add(std::string name, CheckFn fn, unsigned period,
                      unsigned lane)
{
    mmr_assert(fn != nullptr, "invariant '", name, "' has no predicate");
    mmr_assert(period > 0, "invariant '", name, "' needs period >= 1");
    mmr_assert(lane < laneSet.size(), "invariant '", name, "' on lane ",
               lane, " of ", laneSet.size());
    mmr_assert(!has(name), "invariant '", name, "' registered twice");
    Lane &l = laneSet[lane];
    if (period == 1) {
        l.everyCycle.push_back(entries.size());
        anyEveryCycle = true;
    } else if (std::find(strides.begin(), strides.end(), period) ==
               strides.end()) {
        strides.push_back(period);
    }
    l.all.push_back(entries.size());
    entries.push_back(Entry{std::move(name), std::move(fn), period});
}

void
InvariantChecker::setLanes(unsigned count, LaneRunner lane_runner)
{
    mmr_assert(count >= 1 && lane_runner != nullptr,
               "audit lanes need a count >= 1 and a runner");
    mmr_assert(runner == nullptr, "audit lanes installed twice");
    laneSet.resize(count);
    runner = std::move(lane_runner);
    laneBody = [this](unsigned l) { runTripping(l); };
}

bool
InvariantChecker::has(const std::string &name) const
{
    return std::any_of(entries.begin(), entries.end(),
                       [&](const Entry &e) { return e.name == name; });
}

std::vector<std::string>
InvariantChecker::names() const
{
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const Entry &e : entries)
        out.push_back(e.name);
    return out;
}

void
InvariantChecker::run(const std::string &name, Cycle now) const
{
    for (const Entry &e : entries) {
        if (e.name == name) {
            e.fn(now);
            ++ranInline;
            return;
        }
    }
    mmr_panic("no invariant named '", name, "' is registered");
}

void
InvariantChecker::checkAll(Cycle now) const
{
    if (!invariant::enabled())
        return;
    for (const Entry &e : entries) {
        e.fn(now);
        ++ranInline;
    }
}

std::uint64_t
InvariantChecker::checksRun() const
{
    std::uint64_t total = ranInline;
    for (const Lane &l : laneSet)
        total += l.ran;
    return total;
}

void
InvariantChecker::advance(Cycle now)
{
    if (!invariant::enabled())
        return;
    auditCycle = now;
    auditSweep = std::any_of(strides.begin(), strides.end(),
                             [now](unsigned p) { return now % p == 0; });
    if (runner == nullptr) {
        runLane(laneSet[0]);
        return;
    }
    if (!auditSweep && !anyEveryCycle)
        return;
    runner(now, laneBody);
    if (anyTripped.load(std::memory_order_relaxed))
        replaySerially(now);
}

void
InvariantChecker::runLane(Lane &lane)
{
    // Between sweeps only the period-1 entries are due: run just those
    // (a subsequence, so registration order holds) instead of testing
    // every strided entry's period.
    const Cycle now = auditCycle;
    if (!auditSweep) {
        for (const std::size_t i : lane.everyCycle) {
            entries[i].fn(now);
            ++lane.ran;
        }
        return;
    }
    for (const std::size_t i : lane.all) {
        const Entry &e = entries[i];
        if (e.period == 1 || now % e.period == 0) {
            e.fn(now);
            ++lane.ran;
        }
    }
}

void
InvariantChecker::runTripping(unsigned l)
{
    Lane &lane = laneSet[l];
    try {
        const detail::PanicsTrip trips;
        runLane(lane);
    } catch (...) {
        lane.tripped = true;
        anyTripped.store(true, std::memory_order_relaxed);
    }
}

void
InvariantChecker::replaySerially(Cycle now)
{
    unsigned lane = 0;
    while (!laneSet[lane].tripped)
        ++lane;
    for (Lane &l : laneSet)
        l.tripped = false;
    anyTripped.store(false, std::memory_order_relaxed);
    // The lanes stopped at their first violation, each in its own
    // registration order; the serial order across lanes is the one
    // entry list, so walk it again with panics live.  The checks only
    // read committed state, so each finds what it found in its lane.
    for (const Entry &e : entries)
        if (e.period == 1 || now % e.period == 0)
            e.fn(now);
    mmr_panic("invariant audit lane ", lane, " tripped at cycle ", now,
              " but every check passed when re-run serially");
}

} // namespace mmr
