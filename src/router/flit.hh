/**
 * @file
 * The unit of flow control (§3.1, §3.4).
 *
 * PCS data streams are sequences of flits on an established
 * connection; best-effort messages are single-flit packets (packet
 * size equals flit size), so one struct covers both.  Connection-setup
 * probes and acknowledgments are not flits: they travel as timed
 * messages in network/probe_protocol.
 */

#ifndef MMR_ROUTER_FLIT_HH
#define MMR_ROUTER_FLIT_HH

#include <cstdint>

#include "base/types.hh"
#include "traffic/rates.hh"

namespace mmr
{

struct Flit
{
    ConnId conn = kInvalidConn;
    TrafficClass klass = TrafficClass::CBR;

    std::uint32_t seq = 0;    ///< per-connection sequence number

    Cycle createTime = 0;     ///< generation time at the source
    Cycle readyTime = 0;      ///< ready at the current switch input

    NodeId src = kInvalidNode; ///< network-level source node
    NodeId dst = kInvalidNode; ///< network-level destination node

    /** VBR frame deadline (cycles) set by the single-router harness;
     * 0 elsewhere. */
    double arg = 0.0;

    std::uint16_t hops = 0;   ///< routers traversed so far
    bool downPhase = false;   ///< up*-down* state for adaptive VCT

    /** Payload damaged on the wire (fault injection); the receiving
     * router's CRC check discards such flits with accounting. */
    bool corrupted = false;

    bool isStream() const
    {
        return klass == TrafficClass::CBR || klass == TrafficClass::VBR;
    }
};

} // namespace mmr

#endif // MMR_ROUTER_FLIT_HH
