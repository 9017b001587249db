#include "network/probe_protocol.hh"

#include "base/logging.hh"

namespace mmr
{

ProbeSetupManager::ProbeSetupManager(const Topology &topo_,
                                     RouterAccess router_at,
                                     CompletionFn on_complete,
                                     std::uint64_t seed)
    : topo(topo_),
      fabric{&topo_, std::move(router_at),
             (topo_.maxDegree() + 1 + 63) / 64, {}},
      onComplete(std::move(on_complete)), rng(seed),
      distCache(topo_.numNodes()), distCacheEpoch(topo_.numNodes(), 0)
{
    mmr_assert(fabric.routerAt && onComplete,
               "probe manager needs router access and a callback");
    fabric.cands.reserve(topo.maxDegree());
}

const std::vector<unsigned> &
ProbeSetupManager::distancesTo(NodeId dst)
{
    // A link that failed must neither count as a shortcut nor attract
    // probes: the walk crosses only links that are up.
    std::vector<unsigned> &dist = distCache[dst];
    if (distCacheEpoch[dst] != topo.linkEpoch()) {
        distCacheEpoch[dst] = topo.linkEpoch();
        topo.bfsDistances(dst, dist, bfsQueue);
    }
    return dist;
}

void
ProbeSetupManager::launch(PathSearch &search, const SetupRequest &req,
                          SetupPolicy policy)
{
    mmr_assert(req.src < topo.numNodes() && req.dst < topo.numNodes() &&
                   req.src != req.dst,
               "bad setup endpoints");
    search.start(fabric, req, policy, distancesTo(req.dst));
}

bool
ProbeSetupManager::establish(const SetupRequest &req, SetupPolicy policy,
                             Rng &search_rng, PathSearch &search)
{
    launch(search, req, policy);
    SearchStatus status = SearchStatus::Searching;
    while (status == SearchStatus::Searching)
        status = search.step(search_rng);
    return status == SearchStatus::Accepted;
}

void
ProbeSetupManager::reservePools(std::size_t n)
{
    const std::size_t minted = slots.size();
    while (slots.size() < n) {
        slots.emplace_back();
        slots.back().setup.reserve(fabric);
    }
    // The new slots are stacked descending, so pops hand them out in
    // ascending index order.
    freeSlots.reserve(slots.size());
    for (std::size_t i = slots.size(); i-- > minted;)
        freeSlots.push_back(static_cast<std::uint32_t>(i));
    order.reserve(n);
}

// mmr-lint: allow(hot-path-alloc) amortized: the slot pool, the order
// list and every per-slot container grow to the churn high-water mark
// and are recycled from the free list afterwards.
std::uint64_t
ProbeSetupManager::begin(const SetupRequest &req, SetupPolicy policy,
                         Cycle now)
{
    std::uint32_t idx;
    if (!freeSlots.empty()) {
        idx = freeSlots.back();
        freeSlots.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
    }
    Probe &p = slots[idx];
    TimedSetup &s = p.setup;
    // The search snapshots the surviving distances as of launch;
    // faults that land mid-flight do not retarget a probe.
    launch(s, req, policy);
    s.state = SetupState::Probing;
    s.startedAt = now;
    s.finishedAt = 0;
    s.timedOut = false;
    s.conn = kInvalidConn;
    s.handle = ConnHandle{};
    p.nextAction = now; // first hop attempt happens this cycle
    p.deadline = timeoutCycles ? now + timeoutCycles : 0;
    p.lost = false;
    p.ackIndex = 0;
    order.push_back(idx);
    ++holdStamp;
    return (std::uint64_t{idx} << 32) | p.epoch;
}

const TimedSetup *
ProbeSetupManager::take(std::uint64_t token)
{
    const std::uint64_t idx = token >> 32;
    if (idx >= slots.size())
        return nullptr;
    Probe &p = slots[idx];
    if (!p.finished || p.epoch != static_cast<std::uint32_t>(token))
        return nullptr;
    p.finished = false;
    ++p.epoch;
    freeSlots.push_back(static_cast<std::uint32_t>(idx));
    return &p.setup;
}

void
ProbeSetupManager::timeoutProbe(Probe &p, Cycle now)
{
    TimedSetup &s = p.setup;
    s.releaseAll();
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

    // Probing: one search step per hop latency.
    const SearchStatus status = s.step(rng);
    ++holdStamp;
    if (status == SearchStatus::Refused) {
        s.state = SetupState::Refused;
        s.finishedAt = now;
        onComplete(s);
        return true;
    }
    if (status == SearchStatus::Accepted) {
        // The ack walks back over every reserved hop.
        s.state = SetupState::Returning;
        p.ackIndex = s.hops.size();
    }
    p.nextAction = now + hopLatency;
    return false;
}

void
ProbeSetupManager::step(Cycle now)
{
    // Probes are serviced in launch order; a finished probe leaves
    // the order list (erasing a u32, not a Probe) and keeps its slot
    // until take().
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
        p.finished = true;
        // Leaving the in-flight set retires the probe's hops from the
        // table (an Established path is now installed segments).
        ++holdStamp;
    }
}

} // namespace mmr
