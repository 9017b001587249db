#include "network/epb.hh"

#include "base/logging.hh"

namespace mmr
{

void
PathSearch::reserve(const SearchFabric &fabric_)
{
    const std::size_t nodes = fabric_.topo->numNodes();
    searchedWords.assign(nodes * fabric_.searchedWordsPerNode, 0);
    dist.reserve(nodes);
    // A probe only moves to nodes nearer the destination, so it never
    // holds more hops than there are nodes.
    hops.reserve(nodes);
}

void
PathSearch::start(SearchFabric &fabric_, const SetupRequest &req,
                  SetupPolicy policy_,
                  const std::vector<unsigned> &dist_to_dst)
{
    fabric = &fabric_;
    request = req;
    policy = policy_;
    hops.clear();
    forwardSteps = 0;
    backtrackSteps = 0;
    at = req.src;
    // mmr-lint: allow(hot-path-alloc) amortized: sized by the (fixed)
    // topology once, then rewritten in place on every search.
    searchedWords.assign(
        fabric->topo->numNodes() * fabric->searchedWordsPerNode, 0);
    // mmr-lint: allow(hot-path-alloc) amortized: see above.
    dist.assign(dist_to_dst.begin(), dist_to_dst.end());
}

bool
PathSearch::searched(NodeId n, std::size_t bit) const
{
    const std::size_t w = n * fabric->searchedWordsPerNode + bit / 64;
    return (searchedWords[w] >> (bit % 64)) & 1u;
}

void
PathSearch::markSearched(NodeId n, std::size_t bit)
{
    const std::size_t w = n * fabric->searchedWordsPerNode + bit / 64;
    searchedWords[w] |= std::uint64_t{1} << (bit % 64);
}

bool
PathSearch::reserveHop(PortId out, VcId &out_vc)
{
    MmrRouter &router = fabric->routerAt(at);
    AdmissionController &admit = router.admission();
    bool admitted = false;
    if (request.klass == TrafficClass::CBR)
        admitted = admit.tryAdmitCbr(out, request.allocCycles);
    else if (request.klass == TrafficClass::VBR)
        admitted = admit.tryAdmitVbr(out, request.permCycles,
                                     request.peakCycles);
    else
        mmr_panic("EPB establishes CBR/VBR connections only");
    if (!admitted)
        return false;

    out_vc = router.routing().allocOutputVc(out);
    if (out_vc == kInvalidVc) {
        if (request.klass == TrafficClass::CBR)
            admit.releaseCbr(out, request.allocCycles);
        else
            admit.releaseVbr(out, request.permCycles, request.peakCycles);
        return false;
    }
    return true;
}

void
PathSearch::releaseHop(const ReservedHop &hop)
{
    MmrRouter &router = fabric->routerAt(hop.node);
    router.routing().freeOutputVc(hop.out, hop.outVc);
    if (request.klass == TrafficClass::CBR)
        router.admission().releaseCbr(hop.out, request.allocCycles);
    else
        router.admission().releaseVbr(hop.out, request.permCycles,
                                      request.peakCycles);
}

void
PathSearch::releaseAll()
{
    for (auto it = hops.rbegin(); it != hops.rend(); ++it)
        releaseHop(*it);
    hops.clear();
}

SearchStatus
PathSearch::step(Rng &rng)
{
    const Topology &topo = *fabric->topo;
    if (at == request.dst) {
        // Reserve the final hop onto the destination host link.  A
        // failed try has no side effects and the search holds nothing
        // on this port, so a revisit would fail the same way: it is
        // tried once.
        const auto ni = static_cast<PortId>(topo.degree(at));
        if (!searched(at, ni)) {
            markSearched(at, ni);
            VcId vc = kInvalidVc;
            if (reserveHop(ni, vc)) {
                // mmr-lint: allow(hot-path-alloc) amortized: hop
                // vectors keep their capacity across searches.
                hops.push_back(ReservedHop{at, ni, vc});
                return SearchStatus::Accepted;
            }
        }
        // The host link itself is saturated: a dead end.
    } else {
        // Profitable, unsearched, healthy links in random order.
        std::vector<PortId> &cands = fabric->cands;
        cands.clear();
        for (const auto &port : topo.ports(at)) {
            if (dist[port.neighbor] + 1 != dist[at])
                continue;
            if (!port.up || searched(at, port.localPort))
                continue;
            // mmr-lint: allow(hot-path-alloc) amortized: the shared
            // list keeps its capacity across steps.
            cands.push_back(port.localPort);
        }
        rng.shuffle(cands);
        for (PortId out : cands) {
            markSearched(at, out);
            VcId vc = kInvalidVc;
            if (!reserveHop(out, vc))
                continue;
            // mmr-lint: allow(hot-path-alloc) amortized: see above.
            hops.push_back(ReservedHop{at, out, vc});
            at = topo.neighborAt(at, out);
            ++forwardSteps;
            return SearchStatus::Searching;
        }
    }

    // Dead end: give up (greedy / exhausted source) or backtrack.
    if (policy == SetupPolicy::Greedy || hops.empty()) {
        releaseAll();
        return SearchStatus::Refused;
    }
    const ReservedHop hop = hops.back();
    hops.pop_back();
    releaseHop(hop);
    at = hop.node;
    ++backtrackSteps;
    return SearchStatus::Searching;
}

} // namespace mmr
