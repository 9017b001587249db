/**
 * @file
 * Connection establishment by Exhaustive Profitable Backtracking
 * (§3.5, §4.2; Gaughan & Yalamanchili [17]).
 *
 * "Exhaustive profitable backtracking (EPB) will be used when
 * establishing connections.  This algorithm performs an exhaustive
 * search of the minimal paths in the network until a valid path is
 * found or the probe backtracks to the source node."  At every hop
 * the probe reserves link bandwidth (admission registers) and an
 * output virtual channel; when no unsearched profitable link remains
 * it backtracks, releasing the hop's resources and recording the link
 * in the history store so it is never searched twice.
 *
 * PathSearch is the one implementation of that walk: each step() is
 * one probe action against the routers' real admission and VC state.
 * ProbeSetupManager (probe_protocol.hh) is its only driver, in two
 * modes: establish() runs the steps back to back in zero simulated
 * time (static streams), and the timed protocol spaces them one hop
 * latency apart (churn, recovery).  A greedy non-backtracking policy
 * is provided as the baseline for bench_network_epb.
 */

#ifndef MMR_NETWORK_EPB_HH
#define MMR_NETWORK_EPB_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "base/rng.hh"
#include "network/topology.hh"
#include "router/router.hh"

namespace mmr
{

enum class SetupPolicy
{
    Epb,   ///< exhaustive profitable backtracking
    Greedy ///< first profitable link only; fail on a dead end
};

/** The connection being established and what it demands. */
struct SetupRequest
{
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    TrafficClass klass = TrafficClass::CBR;
    unsigned allocCycles = 0; ///< CBR demand (cycles/round)
    unsigned permCycles = 0;  ///< VBR permanent demand
    unsigned peakCycles = 0;  ///< VBR peak demand
    double rateBps = 0.0;     ///< CBR rate or VBR mean
    int priority = 0;         ///< VBR priority
};

/** One reserved hop: the output side of a router along the path. */
struct ReservedHop
{
    NodeId node = kInvalidNode;
    PortId out = kInvalidPort;
    VcId outVc = kInvalidVc;

    bool
    operator==(const ReservedHop &o) const
    {
        return node == o.node && out == o.out && outVc == o.outVc;
    }
};

/**
 * What a search walks over: the router graph (a probe never steps
 * onto a link the topology reports down) and each node's router
 * (whose admission registers and output VCs it reserves; its host
 * interface hangs off port degree(n)); plus what every search over it
 * shares.
 */
struct SearchFabric
{
    const Topology *topo = nullptr;
    std::function<MmrRouter &(NodeId)> routerAt;
    /** Words per node of a searched-bit table: degree + 1 bits (the
     * NI try included), max over the nodes. */
    std::size_t searchedWordsPerNode = 1;
    /** Candidate outputs of the step being taken.  Searches step one
     * at a time, so they share it. */
    std::vector<PortId> cands;
};

/** Where a search stands after a step. */
enum class SearchStatus
{
    Searching, ///< advanced or backtracked one hop
    Accepted,  ///< the destination NI hop is reserved: hops is the path
    Refused    ///< gave up; every reservation has been released
};

/**
 * One probe's path search: its position, the hops it holds, its step
 * counts, the output links it has searched and the distances it
 * steers by.  Resources are reserved and released as the probe moves,
 * so searches driven concurrently contend for them hop by hop.
 */
class PathSearch
{
  public:
    SetupRequest request;
    SetupPolicy policy = SetupPolicy::Epb;
    /** Hops reserved so far, from the source router; once Accepted,
     * the last one is the destination's NI port. */
    std::vector<ReservedHop> hops;
    unsigned forwardSteps = 0;
    unsigned backtrackSteps = 0;

    /** Size every container for @p fabric so that start() and step()
     * reuse capacity instead of allocating. */
    void reserve(const SearchFabric &fabric);

    /**
     * Begin a search for @p req at its source, steering by
     * @p dist_to_dst (hop distances to req.dst over the surviving
     * links, ~0u where unreachable; copied, so a later fault does not
     * retarget the probe).  The previous search's hops must have been
     * released or handed to an installed connection.
     */
    void start(SearchFabric &fabric, const SetupRequest &req,
               SetupPolicy policy,
               const std::vector<unsigned> &dist_to_dst);

    /**
     * One probe action.  At the destination: reserve its NI hop
     * (tried once per search).  Elsewhere: advance over a random
     * unsearched profitable link that admits the demand.  At a dead
     * end: backtrack one hop (EPB), or give up (greedy, or nothing
     * left at the source).  @p rng orders the candidate links.
     */
    SearchStatus step(Rng &rng);

    /** Release every held hop, newest first. */
    void releaseAll();

  private:
    bool searched(NodeId n, std::size_t bit) const;
    void markSearched(NodeId n, std::size_t bit);
    /** Reserve the demand on output @p out of the current node. */
    bool reserveHop(PortId out, VcId &out_vc);
    void releaseHop(const ReservedHop &hop);

    SearchFabric *fabric = nullptr;
    NodeId at = kInvalidNode;
    std::vector<unsigned> dist;
    /**
     * Output links already searched, per node: the per-input-VC
     * history store of §3.5, carried with the probe.  Node n's bits
     * are the fabric's searchedWordsPerNode words from
     * n * searchedWordsPerNode; bit d is output d, so the NI port
     * (degree(n)) is the destination try.
     */
    std::vector<std::uint64_t> searchedWords;
};

} // namespace mmr

#endif // MMR_NETWORK_EPB_HH
