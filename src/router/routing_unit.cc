#include "router/routing_unit.hh"

#include "base/logging.hh"

namespace mmr
{

RoutingUnit::RoutingUnit(unsigned num_ports, unsigned vcs_per_port)
    : ports(num_ports), vcs(vcs_per_port),
      direct(static_cast<std::size_t>(num_ports) * vcs_per_port),
      reverse(static_cast<std::size_t>(num_ports) * vcs_per_port)
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

std::size_t
RoutingUnit::index(ChannelRef c) const
{
    mmr_assert(c.port < ports && c.vc < vcs, "channel (", c.port, ",",
               c.vc, ") out of range");
    return static_cast<std::size_t>(c.port) * vcs + c.vc;
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

void
RoutingUnit::map(ChannelRef in, ChannelRef out)
{
    mmr_assert(!direct[index(in)].valid(), "input channel already mapped");
    mmr_assert(!reverse[index(out)].valid(),
               "output channel already mapped");
    direct[index(in)] = out;
    reverse[index(out)] = in;
}

void
RoutingUnit::unmap(ChannelRef in)
{
    const ChannelRef out = direct[index(in)];
    mmr_assert(out.valid(), "unmapping a channel with no mapping");
    direct[index(in)] = ChannelRef{};
    reverse[index(out)] = ChannelRef{};
}

ChannelRef
RoutingUnit::directMap(ChannelRef in) const
{
    return direct[index(in)];
}

ChannelRef
RoutingUnit::reverseMap(ChannelRef out) const
{
    return reverse[index(out)];
}

} // namespace mmr
