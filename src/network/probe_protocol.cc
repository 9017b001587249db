#include "network/probe_protocol.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mmr
{

std::string
to_string(SetupState s)
{
    switch (s) {
      case SetupState::Probing:
        return "probing";
      case SetupState::Returning:
        return "returning";
      case SetupState::Established:
        return "established";
      case SetupState::Refused:
        return "refused";
    }
    return "?";
}

namespace
{

bool
reserveHop(MmrRouter &router, PortId out, const SetupRequest &req,
           VcId &out_vc)
{
    AdmissionController &admit = router.admission();
    bool admitted = false;
    if (req.klass == TrafficClass::CBR)
        admitted = admit.tryAdmitCbr(out, req.allocCycles);
    else if (req.klass == TrafficClass::VBR)
        admitted = admit.tryAdmitVbr(out, req.permCycles, req.peakCycles);
    else
        mmr_panic("probes establish CBR/VBR connections only");
    if (!admitted)
        return false;
    out_vc = router.routing().allocOutputVc(out);
    if (out_vc == kInvalidVc) {
        if (req.klass == TrafficClass::CBR)
            admit.releaseCbr(out, req.allocCycles);
        else
            admit.releaseVbr(out, req.permCycles, req.peakCycles);
        return false;
    }
    return true;
}

void
releaseHop(MmrRouter &router, const ReservedHop &hop,
           const SetupRequest &req)
{
    router.routing().freeOutputVc(hop.out, hop.outVc);
    if (req.klass == TrafficClass::CBR)
        router.admission().releaseCbr(hop.out, req.allocCycles);
    else
        router.admission().releaseVbr(hop.out, req.permCycles,
                                      req.peakCycles);
}

} // namespace

ProbeSetupManager::ProbeSetupManager(const Topology &topo_,
                                     RouterAccess router_at,
                                     NiPortOf ni_port_of,
                                     CompletionFn on_complete,
                                     std::uint64_t seed)
    : topo(topo_), routerAt(std::move(router_at)),
      niPortOf(std::move(ni_port_of)), onComplete(std::move(on_complete)),
      rng(seed),
      searchedWordsPerNode((topo_.maxDegree() + 1 + 63) / 64),
      distCache(topo_.numNodes()), distCacheEpoch(topo_.numNodes(), 0)
{
    mmr_assert(routerAt && niPortOf && onComplete,
               "probe manager needs router access and a callback");
}

bool
ProbeSetupManager::searched(const Probe &p, NodeId n,
                            std::size_t bit) const
{
    const std::size_t w = n * searchedWordsPerNode + bit / 64;
    return (p.searchedWords[w] >> (bit % 64)) & 1u;
}

void
ProbeSetupManager::markSearched(Probe &p, NodeId n, std::size_t bit)
{
    const std::size_t w = n * searchedWordsPerNode + bit / 64;
    p.searchedWords[w] |= std::uint64_t{1} << (bit % 64);
}

bool
ProbeSetupManager::linkUsable(NodeId n, PortId port) const
{
    return !linkAlive || linkAlive(n, port);
}

const std::vector<unsigned> &
ProbeSetupManager::distancesTo(NodeId dst)
{
    if (distCacheEpoch[dst] != linkEpoch) {
        survivingDistances(topo, dst, linkAlive, scratch,
                           distCache[dst]);
        distCacheEpoch[dst] = linkEpoch;
    }
    return distCache[dst];
}

void
ProbeSetupManager::reservePools(std::size_t n)
{
    const std::size_t numNodes = topo.numNodes();
    // Hop capacity: an established path visits each node at most once;
    // wandering searches beyond this grow (rarely) on demand.
    const std::size_t hopCap = numNodes + 1;
    while (slots.size() < n) {
        slots.emplace_back();
        Probe &p = slots.back();
        p.searchedWords.assign(numNodes * searchedWordsPerNode, 0);
        p.distToDst.reserve(numNodes);
        p.setup.hops.reserve(hopCap);
    }
    // Rebuild the free list only when the pool is idle (construction
    // time).  Indices are stacked descending so pops hand out
    // 0, 1, 2, ... — the same sequence lazy emplace_back growth
    // produces, keeping slot assignment (and digests) unchanged.
    if (order.empty()) {
        freeSlots.clear();
        freeSlots.reserve(slots.size());
        for (std::size_t i = slots.size(); i-- > 0;)
            freeSlots.push_back(static_cast<std::uint32_t>(i));
    }
    order.reserve(n);
}

// mmr-lint: allow(hot-path-alloc) amortized: the slot pool, the order
// list and every per-slot container grow to the churn high-water mark
// and are recycled from the free list afterwards.
std::uint64_t
ProbeSetupManager::begin(const SetupRequest &req, SetupPolicy policy,
                         Cycle now)
{
    mmr_assert(req.src < topo.numNodes() && req.dst < topo.numNodes() &&
                   req.src != req.dst,
               "bad setup endpoints");
    std::uint32_t idx;
    if (!freeSlots.empty()) {
        idx = freeSlots.back();
        freeSlots.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
    }
    Probe &p = slots[idx];
    p.setup.token = nextToken++;
    p.setup.state = SetupState::Probing;
    p.setup.request = req;
    p.setup.policy = policy;
    p.setup.hops.clear();
    p.setup.forwardSteps = 0;
    p.setup.backtrackSteps = 0;
    p.setup.startedAt = now;
    p.setup.finishedAt = 0;
    p.setup.timedOut = false;
    p.at = req.src;
    p.nextAction = now; // first hop attempt happens this cycle
    p.deadline = timeoutCycles ? now + timeoutCycles : 0;
    p.lost = false;
    p.ackIndex = 0;
    p.searchedWords.assign(topo.numNodes() * searchedWordsPerNode, 0);
    // Snapshot the surviving distances as of launch; faults that land
    // mid-flight do not retarget a probe (same as the uncached BFS).
    p.distToDst = distancesTo(req.dst);
    order.push_back(idx);
    ++holdStamp;
    return p.setup.token;
}

void
ProbeSetupManager::timeoutProbe(Probe &p, Cycle now)
{
    TimedSetup &s = p.setup;
    for (auto it = s.hops.rbegin(); it != s.hops.rend(); ++it)
        releaseHop(routerAt(it->node), *it, s.request);
    s.hops.clear();
    ++holdStamp;
    s.state = SetupState::Refused;
    s.timedOut = true;
    s.finishedAt = now;
    ++statTimeouts;
    onComplete(s);
}

void
ProbeSetupManager::accountReservations(
    const std::vector<std::size_t> &port_offset,
    std::vector<unsigned> &alloc, std::vector<unsigned> &peak) const
{
    mmr_assert(port_offset.size() == topo.numNodes() + 1 &&
                   alloc.size() == port_offset.back() &&
                   peak.size() == port_offset.back(),
               "reservation accounting table mis-sized");
    for (const std::uint32_t idx : order) {
        const Probe &p = slots[idx];
        const SetupRequest &req = p.setup.request;
        for (const ReservedHop &hop : p.setup.hops) {
            const std::size_t row = port_offset[hop.node];
            mmr_assert(hop.out < port_offset[hop.node + 1] - row,
                       "reserved hop on a port the node does not have");
            const std::size_t i = row + hop.out;
            if (req.klass == TrafficClass::CBR) {
                alloc[i] += req.allocCycles;
            } else {
                alloc[i] += req.permCycles;
                peak[i] += req.peakCycles;
            }
        }
    }
}

bool
ProbeSetupManager::advanceProbe(Probe &p, Cycle now)
{
    TimedSetup &s = p.setup;
    const SetupRequest &req = s.request;

    // Fault injection: this action's message (probe hop, backtrack or
    // ack hop) is lost on the wire.  The probe goes inert; its hop
    // reservations stay held until the source timer reclaims them.
    if (messageLoss && messageLoss(s)) {
        mmr_assert(p.deadline != 0,
                   "message loss requires a setup timeout, or lost "
                   "probes would strand reservations forever");
        p.lost = true;
        ++statMessagesLost;
        return false;
    }

    if (s.state == SetupState::Returning) {
        // The acknowledgment retraces the path toward the source via
        // the reverse channel mappings, one hop per action.
        if (p.ackIndex == 0) {
            s.state = SetupState::Established;
            s.finishedAt = now;
            onComplete(s);
            return true;
        }
        --p.ackIndex;
        p.nextAction = now + hopLatency;
        return false;
    }

    // --- Probing ---------------------------------------------------
    if (p.at == req.dst) {
        const PortId ni = niPortOf(p.at);
        if (!searched(p, p.at, ni)) {
            markSearched(p, p.at, ni);
            VcId vc = kInvalidVc;
            if (reserveHop(routerAt(p.at), ni, req, vc)) {
                // mmr-lint: allow(hot-path-alloc) amortized: hop
                // vectors keep capacity across probe slot reuse.
                s.hops.push_back(ReservedHop{p.at, ni, vc});
                ++holdStamp;
                // Ack walks back over every reserved hop.
                s.state = SetupState::Returning;
                p.ackIndex = s.hops.size();
                p.nextAction = now + hopLatency;
                return false;
            }
        }
        // Destination host link saturated: dead end, fall through to
        // the backtrack logic below.
    } else {
        // Profitable, unsearched, healthy links in random order.
        // Built in the same order as before so the shuffle (and every
        // RNG draw after it) is unchanged.
        std::vector<PortId> &cands = scratch.cands;
        cands.clear();
        for (const auto &port : topo.ports(p.at)) {
            if (p.distToDst[port.neighbor] + 1 != p.distToDst[p.at])
                continue;
            if (searched(p, p.at, port.localPort))
                continue;
            if (!linkUsable(p.at, port.localPort))
                continue;
            // mmr-lint: allow(hot-path-alloc) amortized: scratch
            // member, capacity persists across actions.
            cands.push_back(port.localPort);
        }
        rng.shuffle(cands);
        for (PortId out : cands) {
            markSearched(p, p.at, out);
            VcId vc = kInvalidVc;
            if (!reserveHop(routerAt(p.at), out, req, vc))
                continue;
            // mmr-lint: allow(hot-path-alloc) amortized: see above.
            s.hops.push_back(ReservedHop{p.at, out, vc});
            ++holdStamp;
            p.at = topo.neighborAt(p.at, out);
            ++s.forwardSteps;
            p.nextAction = now + hopLatency;
            return false;
        }
    }

    // Dead end: give up (greedy / exhausted source) or backtrack.
    if (s.policy == SetupPolicy::Greedy || s.hops.empty()) {
        for (auto it = s.hops.rbegin(); it != s.hops.rend(); ++it)
            releaseHop(routerAt(it->node), *it, req);
        s.hops.clear();
        ++holdStamp;
        s.state = SetupState::Refused;
        s.finishedAt = now;
        onComplete(s);
        return true;
    }
    const ReservedHop hop = s.hops.back();
    s.hops.pop_back();
    ++holdStamp;
    releaseHop(routerAt(hop.node), hop, req);
    p.at = hop.node;
    ++s.backtrackSteps;
    p.nextAction = now + hopLatency;
    return false;
}

void
ProbeSetupManager::step(Cycle now)
{
    // Probes are serviced in launch order; a finished probe frees its
    // slot and leaves the order list (erasing a u32, not a Probe).
    for (std::size_t i = 0; i < order.size();) {
        const std::uint32_t idx = order[i];
        Probe &p = slots[idx];
        // The source timer reclaims overdue setups (lost messages or
        // simply a search that ran too long) before any further
        // protocol action.
        if (p.deadline != 0 && now >= p.deadline) {
            timeoutProbe(p, now);
        } else if (p.lost || p.nextAction > now) {
            ++i;
            continue;
        } else if (!advanceProbe(p, now)) {
            ++i;
            continue;
        }
        order.erase(order.begin() + static_cast<std::ptrdiff_t>(i));
        // Leaving the in-flight set retires the probe's hops from the
        // table (an Established path is now installed segments).
        ++holdStamp;
        // mmr-lint: allow(hot-path-alloc) amortized: free list grows
        // to the probe high-water mark, then recycles.
        freeSlots.push_back(idx);
    }
}

} // namespace mmr
