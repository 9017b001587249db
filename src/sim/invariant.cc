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
InvariantChecker::add(std::string name, CheckFn fn, unsigned period)
{
    mmr_assert(fn != nullptr, "invariant '", name, "' has no predicate");
    mmr_assert(period > 0, "invariant '", name, "' needs period >= 1");
    mmr_assert(!has(name), "invariant '", name, "' registered twice");
    if (period == 1)
        everyCycle.push_back(entries.size());
    else if (std::find(strides.begin(), strides.end(), period) ==
             strides.end())
        strides.push_back(period);
    entries.push_back(Entry{std::move(name), std::move(fn), period});
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
            ++ran;
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
        ++ran;
    }
}

void
InvariantChecker::advance(Cycle now)
{
    if (!invariant::enabled())
        return;
    // Between sweeps only the period-1 entries are due: run just those
    // (a subsequence, so registration order holds) instead of testing
    // every strided entry's period.
    const bool sweep =
        std::any_of(strides.begin(), strides.end(),
                    [now](unsigned p) { return now % p == 0; });
    if (!sweep) {
        for (const std::size_t i : everyCycle) {
            entries[i].fn(now);
            ++ran;
        }
        return;
    }
    for (const Entry &e : entries) {
        if (e.period == 1 || now % e.period == 0) {
            e.fn(now);
            ++ran;
        }
    }
}

} // namespace mmr
