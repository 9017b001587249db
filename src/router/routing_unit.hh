/**
 * @file
 * Routing and Arbitration Unit (§3.5).
 *
 * Keeps the channel mappings between input and output virtual channels
 * for established connections.  Direct mappings forward data flits;
 * reverse mappings serve backtracking headers and returned
 * acknowledgments, and propagate status information.  The EPB history
 * store of §3.5 (the output links a probe has already searched) lives
 * with the search itself, in network/epb's PathSearch.
 *
 * Also owns the free-VC bookkeeping per port, which both connection
 * establishment (PCS) and best-effort VC allocation (VCT) draw from.
 */

#ifndef MMR_ROUTER_ROUTING_UNIT_HH
#define MMR_ROUTER_ROUTING_UNIT_HH

#include <vector>

#include "base/bitvector.hh"
#include "base/types.hh"

namespace mmr
{

/** A (port, virtual channel) pair. */
struct ChannelRef
{
    PortId port = kInvalidPort;
    VcId vc = kInvalidVc;

    bool valid() const { return port != kInvalidPort; }
    bool operator==(const ChannelRef &o) const
    {
        return port == o.port && vc == o.vc;
    }
};

class RoutingUnit
{
  public:
    RoutingUnit(unsigned num_ports, unsigned vcs_per_port);

    /** Allocate the lowest free VC on an input/output port. */
    VcId allocInputVc(PortId port);
    VcId allocOutputVc(PortId port);

    void freeInputVc(PortId port, VcId vc);
    void freeOutputVc(PortId port, VcId vc);

    unsigned freeInputVcCount(PortId port) const;
    unsigned freeOutputVcCount(PortId port) const;

    /** Record a direct + reverse mapping for a connection. */
    void map(ChannelRef in, ChannelRef out);

    /** Tear a mapping down (both directions). */
    void unmap(ChannelRef in);

    /** Direct mapping: where do flits of this input VC go? */
    ChannelRef directMap(ChannelRef in) const;

    /** Reverse mapping: which input VC feeds this output VC? */
    ChannelRef reverseMap(ChannelRef out) const;

    unsigned numPorts() const { return ports; }
    unsigned vcsPerPort() const { return vcs; }

  private:
    std::size_t index(ChannelRef c) const;

    unsigned ports;
    unsigned vcs;
    std::vector<BitVector> inputFree;  ///< per input port
    std::vector<BitVector> outputFree; ///< per output port
    std::vector<ChannelRef> direct;    ///< indexed by input channel
    std::vector<ChannelRef> reverse;   ///< indexed by output channel
};

} // namespace mmr

#endif // MMR_ROUTER_ROUTING_UNIT_HH
