/**
 * @file
 * up*-down* routing with minimal-adaptive selection (§3.5, refs [26],
 * [27]).
 *
 * The MMR routes best-effort packets with "a fully adaptive routing
 * algorithm that has been proposed for wormhole networks with
 * irregular topology and is valid for VCT switching" (Silla & Duato).
 * The deadlock-free substrate is up*-down*: a BFS spanning tree
 * assigns each node a level; a link is "up" toward the root (lower
 * level, node id breaking ties) and a legal route never uses an up
 * link after a down link.  The adaptive layer picks, among the legal
 * next hops, one that makes progress toward the destination, falling
 * back to any legal hop when no profitable legal hop exists.
 *
 * Routes cross only the links the topology reports up.  The levels
 * and the per-destination phase distances are derived from the
 * surviving graph, so each is stamped with the topology's link epoch
 * and refilled in place on the first query after a fail or repair
 * moves it: Autonet's reconfiguration around failed links.
 */

#ifndef MMR_NETWORK_UPDOWN_HH
#define MMR_NETWORK_UPDOWN_HH

#include <cstdint>
#include <vector>

#include "base/rng.hh"
#include "network/topology.hh"

namespace mmr
{

class UpDownRouting
{
  public:
    /**
     * @param topo the topology, connected at construction; it must
     *        outlive the routing.  Links failed later are excluded
     *        from the tree and from every route, and the surviving
     *        graph may then be disconnected: unroutable pairs simply
     *        have no legal next hops.
     * @param root spanning-tree root
     */
    explicit UpDownRouting(const Topology &topo, NodeId root = 0);

    /** BFS level of a node (root is 0). */
    unsigned level(NodeId n) const;

    /** True when traversing from -> to goes "up" (toward the root). */
    bool isUp(NodeId from, NodeId to) const;

    /**
     * Adaptive up*-down* next hops from @p at toward @p dst (at !=
     * dst): writes the output port of every legal hop into @p ports,
     * the adaptive pick first and the others in port order, and
     * returns their count.  The pick is a profitable (distance-
     * reducing) legal hop if any exists, otherwise any legal hop that
     * stays on a working up*-down* route; one @p rng draw breaks ties
     * among equally good hops, made whenever a legal hop exists (even
     * a single one) and not when none does (0: the packet cannot
     * move).  @p ports must hold topology().degree(at) entries.
     */
    unsigned nextHops(NodeId at, NodeId dst, bool down_phase, Rng &rng,
                      std::vector<PortId> &ports) const;

    /**
     * Whether @p dst remains reachable from @p at given the phase —
     * used to prove routes exist (livelock check in tests).
     */
    bool reachable(NodeId at, NodeId dst, bool down_phase) const;

    const Topology &topology() const { return topo; }

  private:
    /** Refill the levels if the link epoch moved since their BFS. */
    void syncLevels() const;

    /** Distances to dst honoring the up*-down* phase automaton, index
     * [node * 2 + phase], phase 1 meaning the packet has already gone
     * down: refilled on the first call per destination and link
     * epoch. */
    const std::vector<unsigned> &phaseDistances(NodeId dst) const;

    const Topology &topo;
    NodeId root;
    /** BFS levels from the root over the surviving links (UINT_MAX
     * where unreachable), as of levelsEpoch. */
    mutable std::vector<unsigned> levels;
    mutable std::uint64_t levelsEpoch = 0;
    /** Per-destination phase distances and the link epoch each was
     * filled at (0 = never). */
    mutable std::vector<std::vector<unsigned>> distCache;
    mutable std::vector<std::uint64_t> distEpoch;
    /** BFS queue shared by both walks (the phase walk queues
     * node * 2 + phase). */
    mutable std::vector<NodeId> queue;
};

} // namespace mmr

#endif // MMR_NETWORK_UPDOWN_HH
