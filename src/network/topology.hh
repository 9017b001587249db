/**
 * @file
 * Network topologies (§1, §3.5).
 *
 * The MMR targets clusters and LANs, where topologies are frequently
 * irregular (switch-based networks of workstations); the routing
 * algorithms cited ([26], [27]) are designed for irregular topologies
 * but regular ones (meshes, tori, rings) are supported as well for the
 * comparative benches.  A topology is an undirected multigraph-free
 * graph of routers; each edge becomes a pair of unidirectional links
 * occupying one port on each endpoint.  Port indices at a node are
 * assigned in edge-insertion order; the network layer reserves one
 * extra port per node for the host interface.
 *
 * A topology also records which links are up.  Fault injection fails
 * and repairs links here (setLinkUp), every reachability walk
 * (bfsDistances, distance, connected) crosses only links that are up,
 * and linkEpoch() moves on every change, so a cache of anything
 * derived from the surviving graph (up*-down* levels and phase
 * distances, the probes' distance tables) stamps itself with the
 * epoch and refills in place when it moves.
 */

#ifndef MMR_NETWORK_TOPOLOGY_HH
#define MMR_NETWORK_TOPOLOGY_HH

#include <cstdint>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"

namespace mmr
{

class Topology
{
  public:
    /** One endpoint view of a link. */
    struct PortInfo
    {
        NodeId neighbor = kInvalidNode;
        PortId localPort = kInvalidPort;  ///< port index at this node
        PortId remotePort = kInvalidPort; ///< port index at neighbor
        bool up = true; ///< false while the link has failed
    };

    explicit Topology(unsigned num_nodes);

    unsigned numNodes() const
    {
        return static_cast<unsigned>(adj.size());
    }

    /** Add a bidirectional link; fatal on self-loops or duplicates. */
    void addLink(NodeId a, NodeId b);

    unsigned degree(NodeId n) const;

    /** Largest degree over all nodes. */
    unsigned maxDegree() const;

    const std::vector<PortInfo> &ports(NodeId n) const;

    /** Port at @p from leading to @p to; kInvalidPort if not adjacent. */
    PortId portTowards(NodeId from, NodeId to) const;

    /** Neighbor reached through a port. */
    NodeId neighborAt(NodeId n, PortId port) const;

    bool hasLink(NodeId a, NodeId b) const;

    /** True when @p a and @p b are adjacent and their link is up. */
    bool linkUp(NodeId a, NodeId b) const;

    /** Fail (@p up false) or repair the a<->b link: both ends flip
     * together and linkEpoch() moves. */
    void setLinkUp(NodeId a, NodeId b, bool up);

    /** Moves on every setLinkUp(); never 0. */
    std::uint64_t linkEpoch() const { return epoch; }

    /** BFS hop distances from @p from over the links that are up
     * (UINT_MAX when unreachable). */
    std::vector<unsigned> bfsDistances(NodeId from) const;

    /** The same walk into caller-owned buffers: @p dist is resized to
     * numNodes() and @p queue holds the BFS order.  Allocation-free
     * once both have held numNodes() entries. */
    void bfsDistances(NodeId from, std::vector<unsigned> &dist,
                      std::vector<NodeId> &queue) const;

    unsigned distance(NodeId a, NodeId b) const;

    /** Every node reachable from node 0 over the links that are up. */
    bool connected() const;

    unsigned numLinks() const { return links; }

    // --- builders --------------------------------------------------
    static Topology mesh2d(unsigned width, unsigned height);
    static Topology torus2d(unsigned width, unsigned height);
    static Topology ring(unsigned n);
    static Topology star(unsigned leaves);

    /**
     * Random connected irregular topology with bounded degree —
     * the cluster/LAN setting of the paper.
     *
     * @param n node count
     * @param extra_links links added beyond the random spanning tree
     * @param max_degree per-node degree bound
     */
    static Topology irregular(unsigned n, unsigned extra_links,
                              unsigned max_degree, Rng &rng);

    /**
     * k-ary multistage interconnection network (butterfly MIN): @p
     * stages stages of radix^(stages-1) switches each; switch j of
     * stage i links to the @p radix switches of stage i+1 whose base-
     * radix representation differs from j only in digit stages-2-i.
     * Every switch is a router with its own host, so the generator
     * scales runs to stages * radix^(stages-1) routers — the large-MIN
     * setting of the Stergiou multistage analysis.
     */
    static Topology multistage(unsigned radix, unsigned stages);

    /**
     * Three-tier k-ary fat-tree (@p radix even, >= 4): radix pods of
     * radix/2 edge + radix/2 aggregation switches, plus (radix/2)^2
     * core switches; edge switches link to every aggregation switch
     * in their pod, and aggregation switch j of each pod links to core
     * switches [j*radix/2, (j+1)*radix/2).  Node ids: cores first,
     * then pod by pod (aggregation before edge).
     */
    static Topology fatTree(unsigned radix);

    /**
     * Two-tier leaf-spine fabric: every leaf links to every spine
     * (complete bipartite).  Node ids: spines [0, spines), leaves
     * after.
     */
    static Topology leafSpine(unsigned spines, unsigned leaves);

  private:
    std::vector<std::vector<PortInfo>> adj;
    unsigned links = 0;
    std::uint64_t epoch = 1;
};

} // namespace mmr

#endif // MMR_NETWORK_TOPOLOGY_HH
