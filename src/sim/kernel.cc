#include "sim/kernel.hh"

#include <chrono>

#include "base/logging.hh"
#include "base/simclock.hh"

namespace mmr
{

Kernel::~Kernel()
{
    // Without this, a later kernel's pre-run phase (workload setup,
    // admission) would read this run's final cycle from the global
    // clock and stamp its logs/trace events with it.
    simclock::clear();
}

void
Kernel::add(Clocked *c, std::string name)
{
    mmr_assert(c != nullptr, "cannot register a null component");
    components.push_back(Item{c, std::move(name)});
    compSeconds.push_back(0.0);
}

void
Kernel::step()
{
    simclock::set(currentCycle);
    if (profiling) {
        stepProfiled();
    } else {
        for (auto &item : components)
            item.component->evaluate(currentCycle);
        for (auto &item : components)
            item.component->advance(currentCycle);
    }
    ++currentCycle;
}

void
Kernel::stepProfiled()
{
    using clock = std::chrono::steady_clock;
    for (std::size_t i = 0; i < components.size(); ++i) {
        const auto t0 = clock::now();
        components[i].component->evaluate(currentCycle);
        compSeconds[i] +=
            std::chrono::duration<double>(clock::now() - t0).count();
    }
    for (std::size_t i = 0; i < components.size(); ++i) {
        const auto t0 = clock::now();
        components[i].component->advance(currentCycle);
        compSeconds[i] +=
            std::chrono::duration<double>(clock::now() - t0).count();
    }
}

void
Kernel::run(Cycle cycles)
{
    for (Cycle i = 0; i < cycles; ++i)
        step();
}

std::vector<std::string>
Kernel::componentNames() const
{
    std::vector<std::string> names;
    names.reserve(components.size());
    for (const Item &item : components)
        names.push_back(item.name);
    return names;
}

} // namespace mmr
