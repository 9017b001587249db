/**
 * @file
 * Host network interface (§4.2, §4.3).
 *
 * The paper pushes complexity to the interfaces: they run the traffic
 * sources, police injection (back-pressure from the router propagates
 * here), and originate the dynamic bandwidth-management commands.
 * This class bundles that host-side logic for the examples and the
 * network benches: it owns one traffic source per established
 * connection, injects arrivals each flit cycle (holding a backlog when
 * the router pushes back), and can generate best-effort datagram flows
 * to random destinations.
 */

#ifndef MMR_NETWORK_INTERFACE_HH
#define MMR_NETWORK_INTERFACE_HH

#include <deque>
#include <memory>
#include <vector>

#include "fault/recovery.hh"
#include "network/network.hh"
#include "traffic/besteffort_source.hh"
#include "traffic/cbr_source.hh"
#include "traffic/source.hh"
#include "traffic/trace_source.hh"
#include "traffic/vbr_source.hh"

namespace mmr
{

class NetworkInterface
{
  public:
    NetworkInterface(Network &net, NodeId host, std::uint64_t seed);

    /** Establish a CBR stream to @p dst and attach its source. */
    bool openCbrStream(NodeId dst, double rate_bps,
                       SetupPolicy policy = SetupPolicy::Epb);

    /** Establish a VBR stream to @p dst. */
    bool openVbrStream(NodeId dst, const VbrProfile &profile,
                       int priority, SetupPolicy policy = SetupPolicy::Epb);

    /**
     * Establish a VBR stream that replays a recorded frame-size trace
     * (one frame size in bits per line).  The permanent bandwidth is
     * the trace's own mean rate; the declared peak is
     * @p peak_to_mean x that mean (§4.2).
     */
    bool openTraceStream(NodeId dst, const std::string &trace_path,
                         double fps, double peak_to_mean, int priority,
                         SetupPolicy policy = SetupPolicy::Epb);

    /**
     * Add a Poisson best-effort flow to a fixed destination, tagged
     * from this host's window of kBestEffortTagsPerHost tags (panics
     * once the window is spent).
     */
    void addBestEffortFlow(NodeId dst, double rate_bps);

    /** Inject everything that became ready during cycle @p now. */
    void tick(Cycle now);

    /**
     * Recovery policy after a link failure kills one of this host's
     * streams (§4.2 pushes such decisions to the interfaces): hand it
     * to a RecoveryManager (fault/recovery.hh).  Every stream opened
     * (and any already open) is adopted.  When one fails, the
     * interface polls the manager: while recovery is in progress the
     * source's arrivals are dropped with accounting; once Recovered
     * the stream resumes on the replacement connection, and once
     * Abandoned it is retired.  A zero-time manager resolves the
     * failure inside failLink(), so the swap lands in the next tick
     * and nothing is dropped.  Without a manager (pass nullptr to
     * detach) a failed stream is retired.
     */
    void attachRecovery(RecoveryManager *mgr);

    unsigned lostStreams() const { return lost; }
    unsigned reestablishedStreams() const { return reestablished; }

    /** Source flits discarded while their stream awaited recovery. */
    std::uint64_t flitsDroppedInRecovery() const
    {
        return droppedInRecovery;
    }

    unsigned establishedStreams() const
    {
        return static_cast<unsigned>(streams.size());
    }
    unsigned refusedStreams() const { return refused; }
    std::uint64_t backloggedFlits() const;
    std::uint64_t injectedFlits() const { return injected; }

    /** Connection labels of this host's established streams. */
    std::vector<ConnId> connections() const;

    /** Handle of the @p k-th stream, in connections() order. */
    Network::Handle handle(unsigned k) const { return streams.at(k).handle; }

  private:
    struct Stream
    {
        ConnId conn; ///< label: the recorder and recovery key
        /** The connection's handle; swapped with conn on recovery. */
        Network::Handle handle;
        /** What a re-establishment asks for; adopted with conn. */
        RecoverySpec spec;
        std::unique_ptr<TrafficSource> source;
        std::deque<Flit> backlog; ///< flits refused by the router
        std::uint32_t seq = 0;
        /** Waiting on the RecoveryManager for a replacement path. */
        bool recovering = false;
    };

    /**
     * Keep a new stream on the connection @p opened names and adopt it
     * for recovery; @p spec's source is this host.
     */
    void addStream(const Network::SetupOutcome &opened, RecoverySpec spec,
                   std::unique_ptr<TrafficSource> source);

    /**
     * Failure step for one stream whose connection stopped taking
     * flits: consume the manager's status and return true when the
     * stream survives (still recovering, or swapped onto its
     * replacement connection).  With no manager, or none that saw this
     * connection fail, the stream is retired.
     */
    bool pollRecovery(Stream &s);

    struct BeFlow
    {
        NodeId dst;
        ConnId flow;
        std::unique_ptr<PoissonSource> source;
        std::uint32_t seq = 0;
    };

    Network &net;
    NodeId host;
    Rng rng;
    std::vector<Stream> streams;
    std::vector<BeFlow> beFlows;
    unsigned refused = 0;
    unsigned lost = 0;
    unsigned reestablished = 0;
    RecoveryManager *recovery = nullptr;
    std::uint64_t injected = 0;
    std::uint64_t droppedInRecovery = 0;
};

} // namespace mmr

#endif // MMR_NETWORK_INTERFACE_HH
