/**
 * @file
 * A test-side view of what crossed a router's switch: added to the
 * kernel after the router, a DepartureTap hands each of the router's
 * departures to a callback in the cycle the router applied it, so a
 * test keeps the plain kernel.run(n) shape.
 */

#ifndef MMR_TESTS_ROUTER_DEPARTURE_TAP_HH
#define MMR_TESTS_ROUTER_DEPARTURE_TAP_HH

#include <functional>
#include <utility>

#include "router/router.hh"
#include "sim/kernel.hh"

namespace mmr
{

class DepartureTap : public Clocked
{
  public:
    using Fn = std::function<void(const MmrRouter::Departure &, Cycle)>;

    DepartureTap(const MmrRouter &r, Fn fn)
        : router(r), onDeparture(std::move(fn))
    {
    }

    void evaluate(Cycle) override {}

    void
    advance(Cycle now) override
    {
        for (const MmrRouter::Departure &d : router.departures())
            onDeparture(d, now);
    }

  private:
    const MmrRouter &router;
    Fn onDeparture;
};

} // namespace mmr

#endif // MMR_TESTS_ROUTER_DEPARTURE_TAP_HH
