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

#include "network/network.hh"
#include "traffic/besteffort_source.hh"
#include "traffic/cbr_source.hh"
#include "traffic/source.hh"
#include "traffic/trace_source.hh"
#include "traffic/vbr_source.hh"

namespace mmr
{

class RecoveryManager;

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

    /** Add a Poisson best-effort flow to a fixed destination. */
    void addBestEffortFlow(NodeId dst, double rate_bps);

    /** Inject everything that became ready during cycle @p now. */
    void tick(Cycle now);

    /**
     * Recovery policy after a link failure kills one of this host's
     * streams (§4.2 pushes such decisions to the interfaces): when
     * enabled, the interface re-runs connection establishment toward
     * the same destination at the same rate and resumes transmission
     * on the new path.
     */
    void setAutoReestablish(bool on) { autoReestablish = on; }

    /**
     * Delegate failure handling to a RecoveryManager (fault/
     * recovery.hh) instead of the synchronous auto-reestablish above:
     * every stream opened (and any already open) is adopted, and when
     * one fails the interface waits on the manager's timed,
     * backoff-scheduled re-setup — dropping the source's arrivals with
     * accounting while recovery is in progress, resuming on the
     * replacement connection, and retiring the stream if recovery is
     * abandoned.  Pass nullptr to detach.
     */
    void attachRecovery(RecoveryManager *mgr);

    unsigned lostStreams() const { return lost; }
    unsigned reestablishedStreams() const { return reestablished; }

    /** Source flits discarded while their stream awaited recovery. */
    std::uint64_t flitsDroppedInRecovery() const
    {
        return droppedInRecovery;
    }

    NodeId node() const { return host; }
    unsigned establishedStreams() const
    {
        return static_cast<unsigned>(streams.size());
    }
    unsigned refusedStreams() const { return refused; }
    std::uint64_t backloggedFlits() const;
    std::uint64_t injectedFlits() const { return injected; }

    /** Connection ids of this host's established streams. */
    std::vector<ConnId> connections() const;

  private:
    struct Stream
    {
        ConnId conn;
        /** Injection ticket for conn; re-minted whenever conn changes. */
        Network::Ticket ticket;
        NodeId dst = kInvalidNode;
        double rateBps = 0.0; ///< for re-establishment after failure
        bool isVbr = false;
        VbrProfile profile;
        int priority = 0;
        std::unique_ptr<TrafficSource> source;
        std::deque<Flit> backlog; ///< flits refused by the router
        std::uint32_t seq = 0;
        /** Waiting on the RecoveryManager for a replacement path. */
        bool recovering = false;
    };

    /** Handle a stream whose connection failed; true when replaced. */
    bool recoverStream(Stream &s);

    /** Mint @p s's ticket, keep the stream and adopt it for recovery. */
    void addStream(Stream s);

    /** Register a stream with the attached RecoveryManager. */
    void adoptStream(const Stream &s);

    /**
     * Managed-recovery health step for one failed stream: consume the
     * manager's status and return true when the stream survives (still
     * recovering, or swapped onto its replacement connection).
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
    bool autoReestablish = false;
    RecoveryManager *recovery = nullptr;
    std::uint64_t injected = 0;
    std::uint64_t droppedInRecovery = 0;
    ConnId nextBeFlow;
};

} // namespace mmr

#endif // MMR_NETWORK_INTERFACE_HH
