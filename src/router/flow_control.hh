/**
 * @file
 * Link-level virtual-channel flow control (§3.1, §4.2).
 *
 * The MMR uses credit-based flow control to guarantee flits are never
 * dropped: a flit may only be forwarded on an output virtual channel
 * when the downstream buffer has space, and small flit buffers make
 * back-pressure propagate quickly toward the source interface.
 *
 * Control words ride the links alongside flits; besides credits they
 * encapsulate the dynamic bandwidth management commands of §4.3
 * (Myrinet-style command encodings).
 */

#ifndef MMR_ROUTER_FLOW_CONTROL_HH
#define MMR_ROUTER_FLOW_CONTROL_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace mmr
{

class InvariantChecker;

/** Per-(output port, output VC) credit counters. */
class CreditManager
{
  public:
    /**
     * @param ports number of output ports
     * @param vcs virtual channels per port
     * @param initial_credits downstream buffer depth in flits
     */
    CreditManager(unsigned ports, unsigned vcs, unsigned initial_credits);

    /**
     * Single-router (§5) experiments attach infinite sinks: credits
     * never run out.
     */
    void setInfinite(bool inf) { infinite = inf; }
    bool isInfinite() const { return infinite; }

    /** The §4.1 credits_available bit of output VC (@p port, @p vc).
     * Link schedulers read it afresh on every pass, so a counter
     * change needs no notification. */
    bool
    hasCredit(PortId port, VcId vc) const
    {
        return infinite || counters[index(port, vc)] > 0;
    }

    void
    consume(PortId port, VcId vc)
    {
        if (infinite)
            return;
        unsigned &c = counters[index(port, vc)];
        if (c == 0) {
            mmr_panic("credit underflow: consuming a credit that is "
                      "not there on (", port, ",", vc, ")");
        }
        --c;
        ++statConsumed;
    }

    void
    replenish(PortId port, VcId vc)
    {
        if (infinite)
            return;
        unsigned &c = counters[index(port, vc)];
        if (c >= initial) {
            mmr_panic("credit overflow on (", port, ",", vc,
                      "): more returns than the downstream depth ",
                      initial);
        }
        ++c;
        ++statReplenished;
    }

    unsigned
    credits(PortId port, VcId vc) const
    {
        return counters[index(port, vc)];
    }

    /** Lifetime credit ledger (conservation audit inputs). */
    std::uint64_t consumedCount() const { return statConsumed; }
    std::uint64_t replenishedCount() const { return statReplenished; }

    /**
     * Downstream occupancy census: flits currently buffered in the
     * downstream VC that (port, vc) feeds.  Supplied by whoever wires
     * the links (network layer or a test) so credit conservation can
     * be stated exactly: credits + downstream occupancy == depth.
     */
    using CensusFn = std::function<unsigned(PortId, VcId)>;

    /**
     * Audit credit conservation; panics on violation.  The internal
     * ledger (credits outstanding == consumed - replenished) is
     * always checked; when @p census is provided, each counter is
     * additionally checked against the actual downstream buffer:
     * credits + occupancy == initial depth.
     */
    void audit(const CensusFn &census = nullptr) const;

    /** Register the 'credit-ledger' invariant with an auditor, on
     * checker lane @p lane.  A non-empty @p prefix namespaces the
     * invariant ("router3.credit-ledger") so many routers can share
     * one checker. */
    void registerInvariants(InvariantChecker &chk,
                            CensusFn census = nullptr,
                            unsigned period = 1,
                            const std::string &prefix = {},
                            unsigned lane = 0) const;

  private:
    std::size_t
    index(PortId port, VcId vc) const
    {
        mmr_assert(port < numPorts && vc < numVcs, "credit index (",
                   port, ",", vc, ") out of range");
        return static_cast<std::size_t>(port) * numVcs + vc;
    }

    unsigned numPorts;
    unsigned numVcs;
    unsigned initial;
    bool infinite = false;
    std::vector<unsigned> counters;

    std::uint64_t statConsumed = 0;
    std::uint64_t statReplenished = 0;
};

/** Operations carried by control words (§4.3). */
enum class ControlOp : std::uint8_t
{
    None,         ///< no operation
    Probe,        ///< EPB routing probe (connection setup)
    ProbeBack,    ///< backtracking probe
    Ack,          ///< connection-established acknowledgment
    Nack,         ///< connection refused / torn down
    SetBandwidth, ///< dynamic bandwidth renegotiation
    SetPriority,  ///< dynamic priority change for a VBR connection
    AbortFrame,   ///< drop the rest of a late video frame
    Teardown      ///< release an established connection
};

/**
 * A link control word: the out-of-band command channel of §4.3.
 * Encoded into 64 bits for transmission realism (op:8 | conn:24 |
 * arg:32 fixed-point).
 */
struct ControlWord
{
    ControlOp op = ControlOp::None;
    ConnId conn = kInvalidConn;
    double arg = 0.0; ///< rate in Mb/s, priority level, etc.

    std::uint64_t encode() const;
    static ControlWord decode(std::uint64_t bits);

    bool operator==(const ControlWord &o) const;
};

} // namespace mmr

#endif // MMR_ROUTER_FLOW_CONTROL_HH
