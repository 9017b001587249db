/**
 * @file
 * Routing and Arbitration Unit (§3.5): the free-VC pools per port,
 * which both connection establishment (PCS) and best-effort VC
 * allocation (VCT) draw from.
 *
 * The unit's channel mappings live elsewhere.  The direct mapping of
 * an input VC (where its flits go) is the output port and VC held in
 * that VC's own VcState.  The reverse mappings would serve
 * backtracking headers and returned acknowledgments, which travel as
 * timed messages in network/probe_protocol; the EPB history store
 * lives with the search (network/epb's PathSearch).  An output VC has
 * one holder because every mapped output VC comes from allocOutputVc,
 * whose bitmap hands a VC out once until it is freed.
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

  private:
    unsigned ports;
    unsigned vcs;
    std::vector<BitVector> inputFree;  ///< per input port
    std::vector<BitVector> outputFree; ///< per output port
};

} // namespace mmr

#endif // MMR_ROUTER_ROUTING_UNIT_HH
