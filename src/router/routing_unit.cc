#include "router/routing_unit.hh"

#include "base/logging.hh"

namespace mmr
{

RoutingUnit::RoutingUnit(unsigned num_ports, unsigned vcs_per_port)
    : ports(num_ports), vcs(vcs_per_port)
{
    mmr_assert(ports > 0 && vcs > 0, "degenerate routing unit");
    inputFree.reserve(ports);
    outputFree.reserve(ports);
    for (unsigned p = 0; p < ports; ++p) {
        inputFree.emplace_back(vcs);
        outputFree.emplace_back(vcs);
        inputFree.back().setAll();
        outputFree.back().setAll();
    }
}

VcId
RoutingUnit::allocInputVc(PortId port)
{
    mmr_assert(port < ports, "port out of range");
    const std::size_t v = inputFree[port].findFirst();
    if (v >= vcs)
        return kInvalidVc;
    inputFree[port].clear(v);
    return static_cast<VcId>(v);
}

VcId
RoutingUnit::allocOutputVc(PortId port)
{
    mmr_assert(port < ports, "port out of range");
    const std::size_t v = outputFree[port].findFirst();
    if (v >= vcs)
        return kInvalidVc;
    outputFree[port].clear(v);
    return static_cast<VcId>(v);
}

void
RoutingUnit::freeInputVc(PortId port, VcId vc)
{
    mmr_assert(port < ports && vc < vcs, "channel out of range");
    mmr_assert(!inputFree[port].test(vc), "double free of input VC");
    inputFree[port].set(vc);
}

void
RoutingUnit::freeOutputVc(PortId port, VcId vc)
{
    mmr_assert(port < ports && vc < vcs, "channel out of range");
    mmr_assert(!outputFree[port].test(vc), "double free of output VC");
    outputFree[port].set(vc);
}

unsigned
RoutingUnit::freeInputVcCount(PortId port) const
{
    mmr_assert(port < ports, "port out of range");
    return static_cast<unsigned>(inputFree[port].count());
}

unsigned
RoutingUnit::freeOutputVcCount(PortId port) const
{
    mmr_assert(port < ports, "port out of range");
    return static_cast<unsigned>(outputFree[port].count());
}

} // namespace mmr
