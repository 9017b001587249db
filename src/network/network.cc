#include "network/network.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/simclock.hh"
#include "obs/flight_recorder.hh"
#include "sim/invariant.hh"
#include "sim/shard_pool.hh"
#include "traffic/rates.hh"

namespace mmr
{

Network::Network(Topology topo_, NetworkConfig cfg_)
    : topo(std::move(topo_)), cfg(cfg_), rand(cfg_.seed),
      updownRoutes(std::make_unique<UpDownRouting>(topo))
{
    // Contiguous-id shard partition (computed before wiring: the
    // router callbacks capture their owning shard).  Contiguity is
    // what makes the mailbox drain order equal the serial loop order.
    const unsigned nodes = topo.numNodes();
    numShards = std::max(1u, std::min(cfg.shards, nodes));
    shardStart.resize(numShards + 1);
    shardOf.resize(nodes);
    const unsigned base = nodes / numShards;
    const unsigned rem = nodes % numShards;
    NodeId next = 0;
    for (unsigned s = 0; s < numShards; ++s) {
        shardStart[s] = next;
        next += base + (s < rem ? 1 : 0);
    }
    shardStart[numShards] = next;
    for (unsigned s = 0; s < numShards; ++s)
        for (NodeId n = shardStart[s]; n < shardStart[s + 1]; ++n)
            shardOf[n] = s;
    mailboxes = std::vector<ShardMailbox>(numShards);
    pool = std::make_unique<ShardPool>(numShards);
    evalPhase = [this](unsigned s) {
        for (NodeId n = shardStart[s]; n < shardStart[s + 1]; ++n)
            routers[n]->evaluate(phaseCycle);
    };
    advPhase = [this](unsigned s) {
        for (NodeId n = shardStart[s]; n < shardStart[s + 1]; ++n)
            routers[n]->advance(phaseCycle);
    };

    routers.reserve(topo.numNodes());
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        RouterConfig rc = cfg.router;
        rc.numPorts = topo.degree(n) + 1; // +1 host-interface port
        rc.seed = cfg.seed * 0x9e3779b9ULL + n + 1;
        routers.push_back(std::make_unique<MmrRouter>(rc));
        routers.back()->credits().setInfinite(false);
        wireRouter(n);
    }
    linkDown.resize(topo.numNodes());
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        linkDown[n].assign(topo.degree(n), false);
    portOffset.assign(topo.numNodes() + 1, 0);
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        portOffset[n + 1] = portOffset[n] + routers[n]->config().numPorts;
    probeAlloc.assign(portOffset.back(), 0);
    probePeak.assign(portOffset.back(), 0);

    probeMgr = std::make_unique<ProbeSetupManager>(
        topo, [this](NodeId n) -> MmrRouter & { return *routers[n]; },
        [this](NodeId n) { return niPort(n); },
        [this](TimedSetup &s) { onTimedSetupComplete(s); },
        cfg.seed ^ 0xabcdef12ULL);
    probeMgr->setHopLatency(cfg.probeHopCycles);
    probeMgr->setLinkAlive([this](NodeId n, PortId port) {
        return directedLinkUp(n, port);
    });
}

bool
Network::directedLinkUp(NodeId n, PortId port) const
{
    mmr_assert(n < linkDown.size(), "node out of range");
    if (port >= linkDown[n].size())
        return true; // the NI port never fails
    return !linkDown[n][port];
}

void
Network::rebuildRouting()
{
    updownRoutes = std::make_unique<UpDownRouting>(
        topo, 0, [this](NodeId a, NodeId b) {
            const PortId port = topo.portTowards(a, b);
            return port != kInvalidPort && directedLinkUp(a, port);
        });
}

bool
Network::linkIsUp(NodeId a, NodeId b) const
{
    const PortId port = topo.portTowards(a, b);
    if (port == kInvalidPort)
        return false;
    return directedLinkUp(a, port);
}

bool
Network::failLink(NodeId a, NodeId b)
{
    const PortId pa = topo.portTowards(a, b);
    const PortId pb = topo.portTowards(b, a);
    if (pa == kInvalidPort || linkDown[a][pa])
        return false;
    linkDown[a][pa] = true;
    linkDown[b][pb] = true;
    probeMgr->invalidateDistances();

    // Flits already in flight on the dead link are lost; return their
    // credits so the upstream VC is not wedged forever.  In-place
    // compaction preserves FIFO order of the survivors.
    std::size_t kept = 0;
    for (LinkFlit &lf : linkQueue) {
        const bool on_dead_link =
            (lf.toNode == b && lf.toPort == pb) ||
            (lf.toNode == a && lf.toPort == pa);
        if (!on_dead_link) {
            linkQueue[kept++] = std::move(lf);
            continue;
        }
        ++statLostFlits;
        if (!lf.flit.isStream())
            ++statDatagramsLost;
        const NodeId upstream = lf.toNode == b ? a : b;
        const PortId up_port = lf.toNode == b ? pa : pb;
        routers[upstream]->credits().replenish(up_port, lf.vc);
        if (!lf.flit.isStream())
            routers[upstream]->routing().freeOutputVc(up_port, lf.vc);
    }
    linkQueue.resize(kept);

    // Mark and start draining every connection whose path crosses the
    // link, in either direction.  The ids are snapshotted and sorted
    // before any side effect: the failure hook draws backoff jitter
    // from the recovery RNG and appends to its retry queue, or opens
    // a zero-time replacement (which draws from `rand` and may take a
    // pool slot), so pool-slot iteration order must not leak into the
    // recovery schedule and the result digest.
    std::vector<ConnId> crossing;
    for (const PcsConnection &conn : pcsSlots) {
        if (!conn.live || conn.failed)
            continue;
        for (const ReservedHop &hop : conn.hops) {
            const bool crosses = (hop.node == a && hop.out == pa) ||
                                 (hop.node == b && hop.out == pb);
            if (crosses) {
                crossing.push_back(conn.id);
                break;
            }
        }
    }
    std::sort(crossing.begin(), crossing.end());
    for (const ConnId id : crossing) {
        PcsConnection &conn = *pcsFind(id);
        conn.failed = true;
        ++conn.epoch; // kill outstanding injection tickets
        if (!conn.closing) {
            conn.closing = true;
            closingIds.push_back(id);
        }
        ++statConnsFailed;
        MMR_OBS_EVENT(TraceCat::Fault, "conn_failed",
                      simclock::now(), conn.src, id,
                      static_cast<std::int32_t>(conn.dst));
        if (connFailHook)
            connFailHook(id, conn.src, conn.dst, conn.klass);
    }

    MMR_OBS_EVENT(TraceCat::Fault, "link_down", simclock::now(), a,
                  kInvalidConn, static_cast<std::int32_t>(b));
    rebuildRouting();
    return true;
}

bool
Network::repairLink(NodeId a, NodeId b)
{
    const PortId pa = topo.portTowards(a, b);
    const PortId pb = topo.portTowards(b, a);
    if (pa == kInvalidPort || !linkDown[a][pa])
        return false;
    linkDown[a][pa] = false;
    linkDown[b][pb] = false;
    probeMgr->invalidateDistances();
    MMR_OBS_EVENT(TraceCat::Fault, "link_up", simclock::now(), a,
                  kInvalidConn, static_cast<std::int32_t>(b));
    rebuildRouting();
    return true;
}

Network::ConnState
Network::connectionState(ConnId id) const
{
    const PcsConnection *conn = pcsFind(id);
    if (conn == nullptr)
        return ConnState::Gone;
    return conn->failed ? ConnState::Failed : ConnState::Open;
}

Network::PcsConnection *
Network::pcsFind(ConnId id)
{
    const std::uint32_t *slot = pcsIndex.find(id);
    return slot ? &pcsSlots[*slot] : nullptr;
}

const Network::PcsConnection *
Network::pcsFind(ConnId id) const
{
    const std::uint32_t *slot = pcsIndex.find(id);
    return slot ? &pcsSlots[*slot] : nullptr;
}

Network::~Network() = default;

MmrRouter &
Network::routerAt(NodeId n)
{
    mmr_assert(n < routers.size(), "node out of range");
    return *routers[n];
}

// mmr-lint: allow(hot-path-alloc) amortized: the mailbox logs the
// router callbacks append to keep their capacity across cycles, so a
// steady-state phase allocates nothing.
void
Network::wireRouter(NodeId n)
{
    // Every callback becomes a record in the emitting router's shard
    // mailbox instead of being applied inline: the handlers touch
    // other routers (credit upstream, link queues, end-to-end stats),
    // which a worker thread must not do.  Routers emit them only while
    // applying a matching, so the coordinator replays the logs once,
    // after the advance phase, in shard order, which for a
    // contiguous-id partition is ascending router id at every shard
    // count.  The one callback that fires outside a phase — segment
    // removal while processPendingCloses() tears a PCS path down —
    // returns before logging, because PCS segments never set
    // releaseWhenEmpty.
    const unsigned shard = shardOf[n];
    routers[n]->setSink(
        [this, n, shard](PortId out, VcId out_vc, const Flit &f, Cycle) {
            mailboxes[shard].log.push_back(DeferredEvent{
                DeferredEvent::Kind::Egress, n, out, out_vc, f});
        });
    routers[n]->setCreditReturn(
        [this, n, shard](PortId in, VcId vc, Cycle) {
            mailboxes[shard].log.push_back(DeferredEvent{
                DeferredEvent::Kind::Credit, n, in, vc, Flit{}});
        });
    routers[n]->setSegmentRemoved(
        [this, n, shard](const SegmentParams &seg) {
            // A transient datagram segment owns its *link* input VC
            // from the upstream router's output pool; the link VC is
            // only free again once the packet has left this router, so
            // the upstream allocation is released here rather than
            // when the flit left the upstream router (that early
            // release would let a new connection claim a VC whose
            // buffer is still occupied).
            if (!seg.releaseWhenEmpty || seg.in >= topo.degree(n))
                return;
            mailboxes[shard].log.push_back(DeferredEvent{
                DeferredEvent::Kind::SegRemoved, n, seg.in, seg.inVc,
                Flit{}});
        });
}

void
Network::handleSegmentRemoved(NodeId n, PortId in, VcId in_vc)
{
    const NodeId upstream = topo.neighborAt(n, in);
    const PortId up_port = topo.portTowards(upstream, n);
    routers[upstream]->routing().freeOutputVc(up_port, in_vc);
}

// mmr-lint: allow(hot-path-alloc) amortized: linkQueue is a member
// vector whose capacity persists at the in-flight high-water mark.
void
Network::handleEgress(NodeId n, PortId out, VcId out_vc, const Flit &f,
                      Cycle now)
{
    if (out == niPort(n)) {
        deliverToHost(n, f, now);
        // The host consumes immediately: return the NI credit.
        if (out_vc != kInvalidVc)
            routers[n]->credits().replenish(out, out_vc);
        return;
    }
    if (!directedLinkUp(n, out)) {
        // The link failed after the flit was scheduled: it is lost on
        // the wire.  Return the credit so the (now pointless) VC does
        // not stay wedged while its connection drains out, and — for
        // datagrams — release the link VC the packet was holding,
        // since no downstream segment will ever do it.
        ++statLostFlits;
        if (!f.isStream())
            ++statDatagramsLost;
        if (out_vc != kInvalidVc) {
            routers[n]->credits().replenish(out, out_vc);
            if (!f.isStream())
                routers[n]->routing().freeOutputVc(out, out_vc);
        }
        return;
    }
    const auto &ports = topo.ports(n);
    mmr_assert(out < ports.size(), "egress on unknown port");
    const auto &link = ports[out];
    LinkFlit lf{link.neighbor, link.remotePort, out_vc, f,
                now + cfg.linkLatency};
    // Fault injection: damage the payload on the wire.  The flit still
    // occupies the link; the downstream CRC check discards it.
    if (corruptHook && corruptHook(n, out, f))
        lf.flit.corrupted = true;
    linkQueue.push_back(std::move(lf));
}

void
Network::handleCreditReturn(NodeId n, PortId in, VcId vc, Cycle now)
{
    (void)now;
    if (in >= topo.degree(n))
        return; // NI-side injection is limited by deposit space
    const NodeId upstream = topo.neighborAt(n, in);
    const PortId up_port = topo.portTowards(upstream, n);
    routers[upstream]->credits().replenish(up_port, vc);
}

void
Network::deliverToHost(NodeId n, const Flit &f, Cycle now)
{
    ++statDelivered;
    MMR_OBS_EVENT(TraceCat::Flit, "e2e_deliver", now, n, f.conn,
                  static_cast<std::int32_t>(f.src),
                  static_cast<std::int32_t>(now - f.createTime));
    if (f.klass == TrafficClass::BestEffort ||
        f.klass == TrafficClass::Control)
        ++statDatagramsDone;
    e2e.recordDeparture(f.conn, now,
                        static_cast<double>(now - f.createTime),
                        f.klass);
}

// ---------------------------------------------------------------------
// PCS connections
// ---------------------------------------------------------------------

void
Network::reserveSessions(std::size_t n)
{
    // An established path visits each node at most once (+ NI hop);
    // paths beyond this grow (rarely) on demand.
    const std::size_t hopCap = topo.numNodes() + 1;
    while (pcsSlots.size() < n) {
        pcsSlots.emplace_back();
        pcsSlots.back().hops.reserve(hopCap);
    }
    // Stack the free list descending so pops hand out slot indices
    // 0, 1, 2, ... — the same sequence lazy emplace_back growth
    // produces; slot assignment (and every digest) is unchanged.
    if (pcsIndex.empty()) {
        pcsFreeSlots.clear();
        pcsFreeSlots.reserve(pcsSlots.size());
        for (std::size_t i = pcsSlots.size(); i-- > 0;)
            pcsFreeSlots.push_back(static_cast<std::uint32_t>(i));
    }
    pcsIndex.reserve(n);
    timedInfo.reserve(n);
    timedDone.reserve(n);
    closingIds.reserve(n);
    probeMgr->reservePools(n);
    e2e.reserveConnections(n);
    // Per-router segment tables: a router can carry at most one
    // segment per output VC, so cap the pre-size at its VC count
    // rather than charging every router for the global session limit.
    for (NodeId node = 0; node < topo.numNodes(); ++node) {
        MmrRouter &r = routerAt(node);
        const std::size_t vcCap =
            static_cast<std::size_t>(r.config().numPorts) *
            r.config().vcsPerPort;
        r.reserveConnections(std::min(n, vcCap));
    }
}

ConnId
Network::installReservedPath(PathSearch &search, double rate_or_mean,
                             int priority)
{
    const SetupRequest &req = search.request;
    const std::vector<ReservedHop> &hops = search.hops;
    mmr_assert(!hops.empty(), "installing an empty path");
    const ConnId id = nextPcsId++;
    const double link = cfg.router.linkRateBps;

    // Source-side input VC on the NI port.
    const PortId src_ni = niPort(req.src);
    const VcId src_vc = routers[req.src]->routing().allocInputVc(src_ni);
    if (src_vc == kInvalidVc) {
        search.releaseAll();
        return kInvalidConn;
    }

    for (std::size_t k = 0; k < hops.size(); ++k) {
        const ReservedHop &hop = hops[k];
        SegmentParams p;
        p.id = id;
        p.klass = req.klass;
        p.out = hop.out;
        p.outVc = hop.outVc;
        p.allocCycles = req.allocCycles;
        p.permCycles = req.permCycles;
        p.peakCycles = req.peakCycles;
        p.interArrival = interArrivalCycles(rate_or_mean, link);
        p.priority = priority;
        p.ownsOutputVc = true;
        if (k == 0) {
            p.in = src_ni;
            p.inVc = src_vc;
            p.ownsInputVc = true;
        } else {
            const NodeId prev = hops[k - 1].node;
            p.in = topo.portTowards(hop.node, prev);
            p.inVc = hops[k - 1].outVc;
            p.ownsInputVc = false;
        }
        if (!routers[hop.node]->installSegment(p)) {
            mmr_panic("segment install failed at node ", hop.node,
                      " for reserved connection ", id);
        }
    }

    // Pool-slotted connection record: reuse a freed slot (and its
    // hops capacity) when one exists.
    std::uint32_t slot;
    if (!pcsFreeSlots.empty()) {
        slot = pcsFreeSlots.back();
        pcsFreeSlots.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(pcsSlots.size());
        // mmr-lint: allow(hot-path-alloc) amortized: the pool grows
        // to the peak live-connection count, then recycles.
        pcsSlots.emplace_back();
    }
    PcsConnection &conn = pcsSlots[slot];
    conn.id = id;
    conn.src = req.src;
    conn.dst = req.dst;
    conn.klass = req.klass;
    conn.srcVc = src_vc;
    conn.hops = hops;
    conn.closing = false;
    conn.failed = false;
    conn.live = true;
    pcsIndex.insert(id, slot);
    return id;
}

Network::SetupOutcome
Network::openNow(const SetupRequest &req, SetupPolicy policy,
                 double rate_or_mean, int priority)
{
    const bool found =
        probeMgr->establish(req, policy, rand, setupSearch);
    SetupOutcome out;
    out.forwardSteps = setupSearch.forwardSteps;
    out.backtrackSteps = setupSearch.backtrackSteps;
    // One hop latency per forward or backtrack step, plus one per
    // path hop for the ack's walk back (a refused search holds none).
    const Cycle actions = setupSearch.forwardSteps +
                          setupSearch.backtrackSteps +
                          setupSearch.hops.size();
    out.setupLatencyCycles =
        static_cast<double>(probeMgr->hopCycles() * actions);
    if (!found) {
        MMR_OBS_EVENT(TraceCat::Setup, "setup_reject",
                      simclock::now(), req.src, kInvalidConn,
                      static_cast<std::int32_t>(req.dst),
                      static_cast<std::int32_t>(out.backtrackSteps));
        return out;
    }

    const ConnId id =
        installReservedPath(setupSearch, rate_or_mean, priority);
    if (id == kInvalidConn)
        return out;

    out.id = id;
    out.accepted = true;
    out.pathLength = static_cast<unsigned>(setupSearch.hops.size());
    MMR_OBS_EVENT(TraceCat::Setup, "setup_accept", simclock::now(),
                  req.src, id,
                  static_cast<std::int32_t>(req.dst),
                  static_cast<std::int32_t>(out.pathLength));
    return out;
}

std::uint64_t
Network::openCbrTimed(NodeId src, NodeId dst, double rate_bps, Cycle now,
                      SetupPolicy policy)
{
    mmr_assert(rate_bps > 0.0 && rate_bps <= cfg.router.linkRateBps,
               "timed setup with an uncarriable rate");
    SetupRequest req;
    req.src = src;
    req.dst = dst;
    req.klass = TrafficClass::CBR;
    req.allocCycles = cyclesPerRound(rate_bps, cfg.router.linkRateBps,
                                     cfg.router.cyclesPerRound());
    const std::uint64_t token = probeMgr->begin(req, policy, now);
    timedInfo.insert(token, TimedRequestInfo{rate_bps, 0});
    return token;
}

std::uint64_t
Network::openVbrTimed(NodeId src, NodeId dst, double mean_bps,
                      double peak_bps, int priority, Cycle now,
                      SetupPolicy policy)
{
    mmr_assert(mean_bps > 0.0 && peak_bps >= mean_bps &&
                   peak_bps <= cfg.router.linkRateBps,
               "timed setup with an uncarriable rate");
    SetupRequest req;
    req.src = src;
    req.dst = dst;
    req.klass = TrafficClass::VBR;
    req.permCycles = cyclesPerRound(mean_bps, cfg.router.linkRateBps,
                                    cfg.router.cyclesPerRound());
    req.peakCycles = cyclesPerRound(peak_bps, cfg.router.linkRateBps,
                                    cfg.router.cyclesPerRound());
    const std::uint64_t token = probeMgr->begin(req, policy, now);
    timedInfo.insert(token, TimedRequestInfo{mean_bps, priority});
    return token;
}

void
Network::onTimedSetupComplete(TimedSetup &s)
{
    const TimedRequestInfo *info_p = timedInfo.find(s.token);
    mmr_assert(info_p != nullptr,
               "completion for an unknown setup token");
    const TimedRequestInfo info = *info_p;
    timedInfo.erase(s.token);

    TimedOutcome out;
    out.token = s.token;
    out.forwardSteps = s.forwardSteps;
    out.backtrackSteps = s.backtrackSteps;
    out.setupCycles = s.finishedAt - s.startedAt;
    if (s.state == SetupState::Established) {
        const ConnId id =
            installReservedPath(s, info.rateOrMean, info.priority);
        if (id != kInvalidConn) {
            out.accepted = true;
            out.id = id;
            out.pathLength = static_cast<unsigned>(s.hops.size());
        }
    }
    MMR_OBS_EVENT(TraceCat::Setup,
                  out.accepted ? "probe_established"
                               : "probe_failed",
                  s.finishedAt, s.request.src, out.id,
                  static_cast<std::int32_t>(s.request.dst),
                  static_cast<std::int32_t>(out.setupCycles));
    timedDone.insert(s.token, out);
}

bool
Network::takeTimedResult(std::uint64_t token, TimedOutcome &out)
{
    const TimedOutcome *r = timedDone.find(token);
    if (r == nullptr)
        return false;
    out = *r;
    timedDone.erase(token);
    return true;
}

std::size_t
Network::pendingSetups() const
{
    return probeMgr->inFlight();
}

Network::SetupOutcome
Network::openCbr(NodeId src, NodeId dst, double rate_bps,
                 SetupPolicy policy)
{
    if (rate_bps <= 0.0 || rate_bps > cfg.router.linkRateBps)
        return SetupOutcome{}; // no link can carry this rate
    SetupRequest req;
    req.src = src;
    req.dst = dst;
    req.klass = TrafficClass::CBR;
    req.allocCycles = cyclesPerRound(rate_bps, cfg.router.linkRateBps,
                                     cfg.router.cyclesPerRound());
    return openNow(req, policy, rate_bps, 0);
}

Network::SetupOutcome
Network::openVbr(NodeId src, NodeId dst, double mean_bps,
                 double peak_bps, int priority, SetupPolicy policy)
{
    if (mean_bps <= 0.0 || peak_bps < mean_bps ||
        peak_bps > cfg.router.linkRateBps)
        return SetupOutcome{};
    SetupRequest req;
    req.src = src;
    req.dst = dst;
    req.klass = TrafficClass::VBR;
    req.permCycles = cyclesPerRound(mean_bps, cfg.router.linkRateBps,
                                    cfg.router.cyclesPerRound());
    req.peakCycles = cyclesPerRound(peak_bps, cfg.router.linkRateBps,
                                    cfg.router.cyclesPerRound());
    return openNow(req, policy, mean_bps, priority);
}

bool
Network::closeConnection(ConnId id)
{
    PcsConnection *conn = pcsFind(id);
    if (conn == nullptr)
        return false;
    if (!conn->closing) {
        conn->closing = true;
        ++conn->epoch; // kill outstanding injection tickets
        // mmr-lint: allow(hot-path-alloc) amortized: closingIds is a
        // member; its capacity persists across cycles.
        closingIds.push_back(id);
    }
    return true;
}

void
Network::processPendingCloses()
{
    // closingIds is maintained incrementally (closeConnection,
    // failLink), so a cycle without pending teardowns costs one
    // empty-check instead of a scan of every open connection.
    if (closingIds.empty())
        return;
    // Teardown order is observable (credits return and output VCs free
    // as segments are removed), so walk the closing connections in
    // ascending id order.  Undrained connections stay on the list for
    // the next cycle, compacted in place.
    std::sort(closingIds.begin(), closingIds.end());
    std::size_t kept = 0;
    for (const ConnId id : closingIds) {
        PcsConnection &conn = *pcsFind(id);
        bool drained = true;
        for (const ReservedHop &hop : conn.hops) {
            const SegmentParams *seg =
                routers[hop.node]->connection(conn.id);
            mmr_assert(seg != nullptr, "missing segment during close");
            const VcState &vc =
                routers[hop.node]->inputMemory(seg->in).vc(seg->inVc);
            if (!vc.empty() || vc.pendingGrants() != 0) {
                drained = false;
                break;
            }
        }
        // A flit can be between routers: in flight on a link.
        if (drained) {
            for (const LinkFlit &lf : linkQueue) {
                if (lf.flit.conn == conn.id) {
                    drained = false;
                    break;
                }
            }
        }
        if (!drained) {
            closingIds[kept++] = id;
            continue;
        }
        for (const ReservedHop &hop : conn.hops)
            routers[hop.node]->removeSegment(conn.id);
        conn.live = false;
        ++conn.epoch; // a reused slot must not revive stale tickets
        conn.hops.clear();
        // mmr-lint: allow(hot-path-alloc) amortized: free list grows
        // to the connection high-water mark, then recycles.
        pcsFreeSlots.push_back(*pcsIndex.find(id));
        pcsIndex.erase(id);
    }
    // mmr-lint: allow(hot-path-alloc) shrinking resize: kept <= size.
    closingIds.resize(kept);
}

Network::Ticket
Network::ticket(ConnId id) const
{
    const std::uint32_t *slot = pcsIndex.find(id);
    if (slot == nullptr)
        return Ticket{};
    const PcsConnection &conn = pcsSlots[*slot];
    if (conn.failed || conn.closing)
        return Ticket{};
    return Ticket{*slot, conn.epoch};
}

bool
Network::inject(Ticket t, Flit f, Cycle now)
{
    if (!live(t))
        return false; // torn down (possibly by a link failure)
    const PcsConnection &conn = pcsSlots[t.slot];
    f.conn = conn.id;
    f.klass = conn.klass;
    f.src = conn.src;
    f.dst = conn.dst;
    f.readyTime = now;
    if (!routers[conn.src]->injectRaw(niPort(conn.src), conn.srcVc, f)) {
        ++statInjectRejects;
        return false;
    }
    return true;
}

bool
Network::renegotiateBandwidth(ConnId id, double new_rate_bps)
{
    const PcsConnection *it = pcsFind(id);
    if (it == nullptr || it->klass != TrafficClass::CBR)
        return false;
    const PcsConnection &conn = *it;

    // Remember the old rate (identical at each hop) for rollback.
    const SegmentParams *seg0 =
        routers[conn.hops.front().node]->connection(id);
    mmr_assert(seg0 != nullptr, "connection without a first segment");
    const double old_rate =
        cfg.router.linkRateBps / seg0->interArrival;

    std::size_t done = 0;
    for (; done < conn.hops.size(); ++done) {
        if (!routers[conn.hops[done].node]->renegotiateBandwidth(
                id, new_rate_bps))
            break;
    }
    if (done == conn.hops.size())
        return true;
    // Rollback the hops that already accepted the new rate.
    for (std::size_t k = 0; k < done; ++k) {
        const bool ok = routers[conn.hops[k].node]->renegotiateBandwidth(
            id, old_rate);
        mmr_assert(ok, "rollback to the old rate must always fit");
    }
    return false;
}

bool
Network::setConnectionPriority(ConnId id, int priority)
{
    const PcsConnection *it = pcsFind(id);
    if (it == nullptr || it->klass != TrafficClass::VBR)
        return false;
    for (const ReservedHop &hop : it->hops)
        routers[hop.node]->setConnectionPriority(id, priority);
    return true;
}

std::vector<NodeId>
Network::connectionPath(ConnId id) const
{
    std::vector<NodeId> path;
    const PcsConnection *it = pcsFind(id);
    if (it == nullptr)
        return path;
    path.reserve(it->hops.size());
    for (const ReservedHop &hop : it->hops)
        path.push_back(hop.node);
    return path;
}

// ---------------------------------------------------------------------
// Datagram traffic
// ---------------------------------------------------------------------

void
Network::sendDatagram(NodeId src, NodeId dst, TrafficClass klass,
                      ConnId flow, Cycle now, std::uint32_t seq)
{
    mmr_assert(src < topo.numNodes() && dst < topo.numNodes(),
               "datagram endpoints out of range");
    mmr_assert(klass == TrafficClass::BestEffort ||
                   klass == TrafficClass::Control,
               "datagrams are best-effort or control packets");
    ++statDatagramsSent;
    MMR_OBS_EVENT(TraceCat::Flit, "dgram_send", now, src, flow,
                  static_cast<std::int32_t>(dst));

    Flit f;
    f.conn = flow;
    f.klass = klass;
    f.seq = seq;
    f.src = src;
    f.dst = dst;
    f.createTime = now;
    f.readyTime = now;

    if (src == dst) {
        deliverToHost(dst, f, now);
        return;
    }

    PendingArrival p;
    p.node = src;
    p.inPort = kInvalidPort; // NI-side injection
    p.inVc = kInvalidVc;
    p.flit = f;
    if (!placeDatagram(p, now))
        pendingArrivals.push_back(std::move(p));
}

bool
Network::placeDatagram(PendingArrival &p, Cycle now)
{
    MmrRouter &router = *routers[p.node];
    const bool ni_injection = p.inPort == kInvalidPort;

    // Choose the output side first (no state is touched on failure).
    PortId out = kInvalidPort;
    bool out_is_down = false;
    if (p.node == p.flit.dst) {
        out = niPort(p.node);
    } else {
        // Adaptive up*-down*: try legal hops, closest-first.
        const NodeId pick = updownRoutes->adaptiveNextHop(
            p.node, p.flit.dst, p.flit.downPhase, rand);
        if (pick == kInvalidNode) {
            ++statDatagramDrops;
            if (!ni_injection) {
                // The packet was holding a link VC and its credit at
                // the upstream router; hand both back.
                const NodeId upstream = topo.neighborAt(p.node, p.inPort);
                const PortId up_port =
                    topo.portTowards(upstream, p.node);
                routers[upstream]->credits().replenish(up_port, p.inVc);
                routers[upstream]->routing().freeOutputVc(up_port,
                                                          p.inVc);
            }
            mmr_warn("datagram at node ", p.node, " for ", p.flit.dst,
                     " has no legal route; dropping");
            return true; // consumed (dropped)
        }
        std::vector<NodeId> hops = updownRoutes->legalNextHops(
            p.node, p.flit.dst, p.flit.downPhase);
        // Put the adaptive pick first, keep the rest as fallbacks.
        std::stable_partition(hops.begin(), hops.end(),
                              [pick](NodeId h) { return h == pick; });
        for (NodeId h : hops) {
            const PortId port = topo.portTowards(p.node, h);
            if (router.routing().freeOutputVcCount(port) > 0) {
                out = port;
                out_is_down = !updownRoutes->isUp(p.node, h);
                break;
            }
        }
        if (out == kInvalidPort)
            return false; // all next hops exhausted; retry later
    }

    const VcId out_vc = router.routing().allocOutputVc(out);
    if (out_vc == kInvalidVc)
        return false;

    // Claim the input VC.
    PortId in = p.inPort;
    VcId in_vc = p.inVc;
    bool owns_input = false;
    if (ni_injection) {
        in = niPort(p.node);
        in_vc = router.routing().allocInputVc(in);
        owns_input = true;
        if (in_vc == kInvalidVc) {
            router.routing().freeOutputVc(out, out_vc);
            return false;
        }
    } else if (router.inputMemory(in).vc(in_vc).bound()) {
        // The previous packet on this link VC has not drained yet.
        router.routing().freeOutputVc(out, out_vc);
        return false;
    }

    SegmentParams seg;
    seg.id = nextTransient++;
    seg.klass = p.flit.klass;
    seg.in = in;
    seg.inVc = in_vc;
    seg.out = out;
    seg.outVc = out_vc;
    seg.releaseWhenEmpty = true;
    seg.ownsInputVc = owns_input;
    // A link output VC stays allocated until the downstream router
    // releases the packet (see the segment-removed hook); only the
    // NI hop's output VC has no downstream router and is freed with
    // this segment.
    seg.ownsOutputVc = (out == niPort(p.node));
    if (!routers[p.node]->installSegment(seg)) {
        router.routing().freeOutputVc(out, out_vc);
        if (owns_input)
            router.routing().freeInputVc(in, in_vc);
        return false;
    }

    Flit f = p.flit;
    if (p.node != f.dst) {
        f.downPhase = f.downPhase || out_is_down;
        ++f.hops;
    }
    f.readyTime = now;
    const bool ok = router.injectRaw(in, in_vc, f);
    mmr_assert(ok, "deposit into a fresh datagram VC cannot fail");
    return true;
}

// mmr-lint: allow(hot-path-alloc) amortized: linkQueueNext and
// pendingArrivals are members; their capacity persists across cycles,
// so steady state recycles buffers instead of churning deque blocks.
void
Network::processArrivals(Cycle now)
{
    // Link flits whose latency has elapsed enter the downstream
    // router: stream flits follow their installed segment; datagrams
    // claim next-hop resources.  Not-yet-due flits are kept, in FIFO
    // order, by compacting into the swap buffer.
    linkQueueNext.clear();
    for (LinkFlit &qf : linkQueue) {
        LinkFlit lf = std::move(qf);
        if (lf.arriveAt > now) {
            linkQueueNext.push_back(std::move(lf));
            continue;
        }
        // CRC check at the input: a flit corrupted on the wire is
        // discarded with accounting.  The upstream credit returns so
        // the VC is not wedged; a datagram additionally releases the
        // link VC it was holding (no downstream segment ever will).
        if (lf.flit.corrupted) {
            ++statFlitsCorrupted;
            if (!lf.flit.isStream())
                ++statDatagramsLost;
            const NodeId upstream = topo.neighborAt(lf.toNode, lf.toPort);
            const PortId up_port = topo.portTowards(upstream, lf.toNode);
            routers[upstream]->credits().replenish(up_port, lf.vc);
            if (!lf.flit.isStream())
                routers[upstream]->routing().freeOutputVc(up_port, lf.vc);
            MMR_OBS_EVENT(TraceCat::Fault, "crc_drop", now,
                          lf.toNode, lf.flit.conn,
                          static_cast<std::int32_t>(lf.flit.src));
            continue;
        }
        Flit f = lf.flit;
        f.readyTime = now;
        // Wire time of this hop (latency plus any cycles spent parked
        // behind same-cycle arrivals): the LinkTransit latency stage.
        e2e.recordLinkTransit(cfg.linkLatency + (now - lf.arriveAt),
                              now);
        if (f.isStream()) {
            if (!routers[lf.toNode]->injectRaw(lf.toPort, lf.vc, f))
                ++statInjectRejects;
            continue;
        }
        PendingArrival p;
        p.node = lf.toNode;
        p.inPort = lf.toPort;
        p.inVc = lf.vc;
        p.flit = f;
        if (!placeDatagram(p, now))
            pendingArrivals.push_back(std::move(p));
    }
    linkQueue.swap(linkQueueNext);

    // Retry every blocked datagram — those parked on earlier cycles
    // and those that just failed above — compacting the still-blocked
    // ones in place, preserving their order.
    const std::size_t n = pendingArrivals.size();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
        PendingArrival p = std::move(pendingArrivals[i]);
        if (!placeDatagram(p, now))
            pendingArrivals[kept++] = std::move(p);
    }
    if (kept != n)
        pendingArrivals.erase(
            pendingArrivals.begin() + static_cast<std::ptrdiff_t>(kept),
            pendingArrivals.begin() + static_cast<std::ptrdiff_t>(n));
}

// ---------------------------------------------------------------------
// Clocked
// ---------------------------------------------------------------------

void
Network::evaluate(Cycle now)
{
    // Serial prologue on the coordinator: the probe protocol, link
    // arrivals, and pending closes all run before any router
    // evaluates, so routers never observe partial prologue state from
    // a worker thread.
    probeMgr->step(now);
    processArrivals(now);
    processPendingCloses();
    phaseCycle = now;
    pool->runPhase(now, evalPhase);
}

void
Network::advance(Cycle now)
{
    // The mailboxes fill in this phase alone (see wireRouter), so one
    // drain covers the cycle.
    phaseCycle = now;
    pool->runPhase(now, advPhase);
    drainMailboxes(now);
}

void
Network::drainMailboxes(Cycle now)
{
    // Deterministic merge: ascending shard id, per-shard append
    // (emission) order.  With contiguous-id partitions this replays
    // every deferred side effect — link-queue pushes, corrupt-hook
    // RNG draws, upstream credit returns, end-to-end FP accumulation —
    // in ascending router order, which is what keeps
    // networkResultDigest bit-identical across shard counts
    // (DESIGN.md §12).
    for (unsigned s = 0; s < numShards; ++s) {
        auto &log = mailboxes[s].log;
        for (const DeferredEvent &e : log) {
            switch (e.kind) {
            case DeferredEvent::Kind::Egress:
                handleEgress(e.node, e.port, e.vc, e.flit, now);
                break;
            case DeferredEvent::Kind::Credit:
                handleCreditReturn(e.node, e.port, e.vc, now);
                break;
            case DeferredEvent::Kind::SegRemoved:
                handleSegmentRemoved(e.node, e.port, e.vc);
                break;
            }
        }
        log.clear();
    }
}

// ---------------------------------------------------------------------
// Invariant auditing
// ---------------------------------------------------------------------

void
Network::registerInvariants(InvariantChecker &chk, unsigned sweep_period)
{
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        routers[n]->registerInvariants(
            chk, sweep_period, "router" + std::to_string(n) + ".",
            [this, n](std::vector<unsigned> &alloc,
                      std::vector<unsigned> &peak) {
                addProbeHoldings(n, alloc, peak);
            });
    }

    // Both directions of a link agree on its health — the fault
    // model's own bookkeeping is self-consistent.
    chk.add(
        "net-link-symmetry",
        [this](Cycle) {
            for (NodeId n = 0; n < topo.numNodes(); ++n) {
                for (const auto &port : topo.ports(n)) {
                    const bool here = linkDown[n][port.localPort];
                    const bool there =
                        linkDown[port.neighbor][port.remotePort];
                    if (here != there) {
                        mmr_invariant_violated(
                            "net-link-symmetry", "link ", n, "<->",
                            port.neighbor,
                            " is down in one direction only");
                    }
                }
            }
        },
        sweep_period);

    // Every open PCS connection still has its segment installed in
    // every router along its path — teardown never leaves a
    // half-removed path behind.
    chk.add(
        "net-pcs-segments",
        [this](Cycle) {
            // Pool-slot order; a pure check, so any violation panics
            // regardless of visit order.
            for (const PcsConnection &conn : pcsSlots) {
                if (!conn.live)
                    continue;
                for (const ReservedHop &hop : conn.hops) {
                    if (routers[hop.node]->connection(conn.id) ==
                        nullptr) {
                        mmr_invariant_violated(
                            "net-pcs-segments", "connection ", conn.id,
                            " (", conn.src, "->", conn.dst,
                            ") has no segment at node ", hop.node);
                    }
                }
            }
        },
        sweep_period);
}

void
Network::addProbeHoldings(NodeId n, std::vector<unsigned> &alloc,
                          std::vector<unsigned> &peak)
{
    // One pass over every probe serves all routers' rows until the
    // probes' hop lists next change.
    const std::uint64_t stamp = probeMgr->reservationStamp();
    if (probeTableStamp != stamp) {
        std::fill(probeAlloc.begin(), probeAlloc.end(), 0u);
        std::fill(probePeak.begin(), probePeak.end(), 0u);
        probeMgr->accountReservations(portOffset, probeAlloc, probePeak);
        probeTableStamp = stamp;
    }
    const std::size_t row = portOffset[n];
    const std::size_t width = portOffset[n + 1] - row;
    mmr_assert(alloc.size() == width && peak.size() == width,
               "demand vectors must be sized to node ", n, "'s ports");
    for (std::size_t o = 0; o < width; ++o) {
        alloc[o] += probeAlloc[row + o];
        peak[o] += probePeak[row + o];
    }
}

// ---------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------

void
Network::registerStats(StatsRegistry &reg, MmrRouter::StatsDetail detail)
{
    reg.addCounter("net.flits.delivered", &statDelivered);
    reg.addCounter("net.flits.lost", &statLostFlits);
    reg.addCounter("net.flits.corrupted", &statFlitsCorrupted);
    reg.addCounter("net.datagrams.lost", &statDatagramsLost);
    reg.addCounter("net.inject_rejects", &statInjectRejects);
    reg.addCounter("net.datagrams.sent", &statDatagramsSent);
    reg.addCounter("net.datagrams.delivered", &statDatagramsDone);
    reg.addCounter("net.datagrams.drops", &statDatagramDrops);
    reg.addCounter("net.connections.failed", &statConnsFailed);
    reg.addGauge("net.connections.open", [this] {
        return static_cast<double>(pcsIndex.size());
    });
    reg.addGauge("net.setups.pending", [this] {
        return static_cast<double>(probeMgr->inFlight());
    });
    reg.addGauge("net.link_queue.depth", [this] {
        return static_cast<double>(linkQueue.size());
    });
    reg.addGauge("net.datagrams.pending", [this] {
        return static_cast<double>(pendingArrivals.size());
    });

    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        routers[n]->registerStats(
            reg, "router" + std::to_string(n) + ".", detail);
    }
}

} // namespace mmr
