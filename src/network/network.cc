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
    // Strided shard partition, router n on shard n mod S (set before
    // wiring: the router callbacks capture their owning shard).
    numShards = std::max(1u, std::min(cfg.shards, topo.numNodes()));
    mailboxes = std::vector<ShardMailbox>(numShards);
    pool = std::make_unique<ShardPool>(numShards);
    evalPhase = [this](unsigned s) { evaluateShard(s); };
    advPhase = [this](unsigned s) { advanceShard(s); };

    routers.reserve(topo.numNodes());
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        RouterConfig rc = cfg.router;
        rc.numPorts = topo.degree(n) + 1; // +1 host-interface port
        rc.seed = cfg.seed * 0x9e3779b9ULL + n + 1;
        routers.push_back(std::make_unique<MmrRouter>(rc));
        routers.back()->credits().setInfinite(false);
        wireRouter(n);
    }
    portOffset.assign(topo.numNodes() + 1, 0);
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        portOffset[n + 1] = portOffset[n] + routers[n]->config().numPorts;
    probeAlloc.assign(portOffset.back(), 0);
    probePeak.assign(portOffset.back(), 0);
    hopPorts.assign(topo.maxDegree(), kInvalidPort);

    probeMgr = std::make_unique<ProbeSetupManager>(
        topo, [this](NodeId n) -> MmrRouter & { return *routers[n]; },
        [this](TimedSetup &s) { onTimedSetupComplete(s); },
        cfg.seed ^ 0xabcdef12ULL);
    probeMgr->setHopLatency(cfg.probeHopCycles);
}

bool
Network::failLink(NodeId a, NodeId b)
{
    if (!topo.linkUp(a, b))
        return false;
    topo.setLinkUp(a, b, false);
    const PortId pa = topo.portTowards(a, b);
    const PortId pb = topo.ports(a)[pa].remotePort;

    // Flits already in flight on the dead link are lost; return their
    // credits so the upstream VC is not wedged forever.  In-place
    // compaction preserves FIFO order of the survivors.  Landed flits
    // wait in the arrival lists only inside evaluate(), so every flit
    // between routers is here.
    for (const ShardMailbox &box : mailboxes)
        mmr_assert(box.arrivals.empty(),
                   "link failed with landed flits not yet deposited");
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
        const Topology::PortInfo &up = topo.ports(lf.toNode)[lf.toPort];
        returnLostFlit(up.neighbor, up.remotePort, lf.vc, lf.flit);
    }
    linkQueue.resize(kept);

    // Mark and start draining every connection whose path crosses the
    // link, in either direction.  The slots are snapshotted and sorted
    // by label before any side effect: the failure hook draws backoff
    // jitter from the recovery RNG and appends to its retry queue, or
    // opens a zero-time replacement (which draws from `rand` and may
    // take, or grow, the pool), so slot order must not leak into the
    // recovery schedule and the result digest.
    std::vector<std::uint32_t> crossing;
    for (std::uint32_t slot = 0; slot < pcsSlots.size(); ++slot) {
        const PcsConnection &conn = pcsSlots[slot];
        if (!conn.inUse || conn.failed)
            continue;
        for (const ReservedHop &hop : conn.hops) {
            const bool crosses = (hop.node == a && hop.out == pa) ||
                                 (hop.node == b && hop.out == pb);
            if (crosses) {
                crossing.push_back(slot);
                break;
            }
        }
    }
    sortByLabel(crossing);
    for (const std::uint32_t slot : crossing) {
        PcsConnection &conn = pcsSlots[slot];
        conn.failed = true;
        if (!conn.closing) {
            conn.closing = true;
            closingSlots.push_back(slot);
        }
        ++statConnsFailed;
        MMR_OBS_EVENT(TraceCat::Fault, "conn_failed",
                      simclock::now(), conn.src, conn.id,
                      static_cast<std::int32_t>(conn.dst));
        if (connFailHook)
            connFailHook(conn.id, conn.src, conn.dst, conn.klass);
    }

    MMR_OBS_EVENT(TraceCat::Fault, "link_down", simclock::now(), a,
                  kInvalidConn, static_cast<std::int32_t>(b));
    return true;
}

bool
Network::repairLink(NodeId a, NodeId b)
{
    if (!topo.hasLink(a, b) || topo.linkUp(a, b))
        return false;
    topo.setLinkUp(a, b, true);
    MMR_OBS_EVENT(TraceCat::Fault, "link_up", simclock::now(), a,
                  kInvalidConn, static_cast<std::int32_t>(b));
    return true;
}

Network::ConnState
Network::connectionState(Handle h) const
{
    const PcsConnection *conn = find(h);
    if (conn == nullptr)
        return ConnState::Gone;
    return conn->failed ? ConnState::Failed : ConnState::Open;
}

void
Network::sortByLabel(std::vector<std::uint32_t> &slots) const
{
    std::sort(slots.begin(), slots.end(),
              [this](std::uint32_t x, std::uint32_t y) {
                  return pcsSlots[x].id < pcsSlots[y].id;
              });
}

ChannelRef
Network::hopInput(const PcsConnection &conn, std::size_t k) const
{
    if (k == 0)
        return ChannelRef{niPort(conn.src), conn.srcVc};
    const ReservedHop &prev = conn.hops[k - 1];
    return ChannelRef{topo.ports(prev.node)[prev.out].remotePort,
                      prev.outVc};
}

const VcState &
Network::hopVc(const PcsConnection &conn, std::size_t k) const
{
    const ChannelRef in = hopInput(conn, k);
    return routers[conn.hops[k].node]->inputMemory(in.port).vc(in.vc);
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
    // after the advance phase, merged by router id: ascending router
    // id at every shard count.  The one callback that fires outside a
    // phase — segment removal while processPendingCloses() tears a PCS
    // path down — returns before logging, because PCS segments never
    // set releaseWhenEmpty.
    const unsigned shard = shardOfNode(n);
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
    const Topology::PortInfo &up = topo.ports(n)[in];
    routers[up.neighbor]->routing().freeOutputVc(up.remotePort, in_vc);
}

void
Network::returnLostFlit(NodeId up, PortId out, VcId vc, const Flit &f)
{
    routers[up]->credits().replenish(out, vc);
    if (!f.isStream())
        routers[up]->routing().freeOutputVc(out, vc);
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
    const auto &ports = topo.ports(n);
    mmr_assert(out < ports.size(), "egress on unknown port");
    const auto &link = ports[out];
    if (!link.up) {
        // The link failed after the flit was scheduled: it is lost on
        // the wire.  Return the credit so the (now pointless) VC does
        // not stay wedged while its connection drains out, and — for
        // datagrams — release the link VC the packet was holding,
        // since no downstream segment will ever do it.
        ++statLostFlits;
        if (!f.isStream())
            ++statDatagramsLost;
        if (out_vc != kInvalidVc)
            returnLostFlit(n, out, out_vc, f);
        return;
    }
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
    const Topology::PortInfo &up = topo.ports(n)[in];
    routers[up.neighbor]->credits().replenish(up.remotePort, vc);
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
    const std::size_t first = pcsSlots.size();
    if (n > first) {
        pcsSlots.resize(n);
        for (std::size_t i = first; i < n; ++i)
            pcsSlots[i].hops.reserve(hopCap);
        // Stack the minted slots under the free ones, highest first:
        // pops hand out the free slots, then first, first + 1, ... —
        // the sequence lazy emplace_back growth produces.
        pcsFreeSlots.reserve(n);
        pcsFreeSlots.insert(pcsFreeSlots.begin(), n - first, 0);
        for (std::size_t k = 0; k < n - first; ++k)
            pcsFreeSlots[k] = static_cast<std::uint32_t>(n - 1 - k);
    }
    closingSlots.reserve(n);
    probeMgr->reservePools(n);
    e2e.reserveOverflow(n);
}

ConnId
Network::installReservedPath(PathSearch &search, Handle &handle)
{
    const SetupRequest &req = search.request;
    mmr_assert(!search.hops.empty(), "installing an empty path");
    if (nextPcsId == kBestEffortTagBase)
        mmr_panic("PCS connection labels exhausted: the next one would "
                  "be the first best-effort flow tag, ",
                  kBestEffortTagBase);
    const ConnId id = nextPcsId++;

    // Source-side input VC on the NI port.
    const VcId src_vc =
        routers[req.src]->routing().allocInputVc(niPort(req.src));
    if (src_vc == kInvalidVc) {
        search.releaseAll();
        return kInvalidConn;
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
    conn.hops = search.hops;
    conn.closing = false;
    conn.failed = false;
    conn.inUse = true;

    for (std::size_t k = 0; k < conn.hops.size(); ++k) {
        const ChannelRef in = hopInput(conn, k);
        SegmentParams p;
        p.id = id;
        p.klass = req.klass;
        p.in = in.port;
        p.inVc = in.vc;
        p.out = conn.hops[k].out;
        p.outVc = conn.hops[k].outVc;
        p.allocCycles = req.allocCycles;
        p.permCycles = req.permCycles;
        p.peakCycles = req.peakCycles;
        p.interArrival =
            interArrivalCycles(req.rateBps, cfg.router.linkRateBps);
        p.priority = req.priority;
        // A link input VC came from the upstream router's output pool.
        p.ownsInputVc = k == 0;
        if (!routers[conn.hops[k].node]->installSegment(p)) {
            mmr_panic("segment install failed at node ",
                      conn.hops[k].node, " for reserved connection ", id);
        }
    }
    handle = Handle{slot, conn.epoch};
    return id;
}

namespace
{

/** A finished search's outcome: @p id and @p h name its installed
 * connection (kInvalidConn when refused), @p cycles is its setup
 * latency. */
Network::SetupOutcome
outcomeOf(const PathSearch &search, ConnId id, Network::Handle h,
          Cycle cycles)
{
    Network::SetupOutcome out;
    out.id = id;
    out.handle = h;
    out.accepted = id != kInvalidConn;
    out.forwardSteps = search.forwardSteps;
    out.backtrackSteps = search.backtrackSteps;
    if (out.accepted)
        out.pathLength = static_cast<unsigned>(search.hops.size());
    out.setupCycles = cycles;
    return out;
}

} // namespace

SetupRequest
Network::cbrRequest(NodeId src, NodeId dst, double rate_bps) const
{
    SetupRequest req;
    req.src = src;
    req.dst = dst;
    req.klass = TrafficClass::CBR;
    req.allocCycles = cyclesPerRound(rate_bps, cfg.router.linkRateBps,
                                     cfg.router.cyclesPerRound());
    req.rateBps = rate_bps;
    return req;
}

SetupRequest
Network::vbrRequest(NodeId src, NodeId dst, double mean_bps,
                    double peak_bps, int priority) const
{
    SetupRequest req;
    req.src = src;
    req.dst = dst;
    req.klass = TrafficClass::VBR;
    req.permCycles = cyclesPerRound(mean_bps, cfg.router.linkRateBps,
                                    cfg.router.cyclesPerRound());
    req.peakCycles = cyclesPerRound(peak_bps, cfg.router.linkRateBps,
                                    cfg.router.cyclesPerRound());
    req.rateBps = mean_bps;
    req.priority = priority;
    return req;
}

Network::SetupOutcome
Network::openNow(const SetupRequest &req, SetupPolicy policy)
{
    const bool found =
        probeMgr->establish(req, policy, rand, setupSearch);
    // One hop latency per forward or backtrack step, plus one per
    // path hop for the ack's walk back (a refused search holds none).
    const Cycle actions = setupSearch.forwardSteps +
                          setupSearch.backtrackSteps +
                          setupSearch.hops.size();
    Handle h;
    const ConnId id =
        found ? installReservedPath(setupSearch, h) : kInvalidConn;
    const SetupOutcome out =
        outcomeOf(setupSearch, id, h, probeMgr->hopCycles() * actions);
    if (!found) {
        MMR_OBS_EVENT(TraceCat::Setup, "setup_reject",
                      simclock::now(), req.src, kInvalidConn,
                      static_cast<std::int32_t>(req.dst),
                      static_cast<std::int32_t>(out.backtrackSteps));
    } else if (out.accepted) {
        MMR_OBS_EVENT(TraceCat::Setup, "setup_accept", simclock::now(),
                      req.src, out.id,
                      static_cast<std::int32_t>(req.dst),
                      static_cast<std::int32_t>(out.pathLength));
    }
    return out;
}

std::uint64_t
Network::openCbrTimed(NodeId src, NodeId dst, double rate_bps, Cycle now,
                      SetupPolicy policy)
{
    mmr_assert(rate_bps > 0.0 && rate_bps <= cfg.router.linkRateBps,
               "timed setup with an uncarriable rate");
    return probeMgr->begin(cbrRequest(src, dst, rate_bps), policy, now);
}

std::uint64_t
Network::openVbrTimed(NodeId src, NodeId dst, double mean_bps,
                      double peak_bps, int priority, Cycle now,
                      SetupPolicy policy)
{
    mmr_assert(mean_bps > 0.0 && peak_bps >= mean_bps &&
                   peak_bps <= cfg.router.linkRateBps,
               "timed setup with an uncarriable rate");
    return probeMgr->begin(
        vbrRequest(src, dst, mean_bps, peak_bps, priority), policy, now);
}

void
Network::onTimedSetupComplete(TimedSetup &s)
{
    if (s.state == SetupState::Established)
        s.conn = installReservedPath(s, s.handle);
    MMR_OBS_EVENT(TraceCat::Setup,
                  s.conn != kInvalidConn ? "probe_established"
                                         : "probe_failed",
                  s.finishedAt, s.request.src, s.conn,
                  static_cast<std::int32_t>(s.request.dst),
                  static_cast<std::int32_t>(s.finishedAt - s.startedAt));
}

bool
Network::takeTimedResult(std::uint64_t token, SetupOutcome &out)
{
    const TimedSetup *s = probeMgr->take(token);
    if (s == nullptr)
        return false;
    out = outcomeOf(*s, s->conn, s->handle, s->finishedAt - s->startedAt);
    return true;
}

Network::SetupOutcome
Network::openCbr(NodeId src, NodeId dst, double rate_bps,
                 SetupPolicy policy)
{
    if (rate_bps <= 0.0 || rate_bps > cfg.router.linkRateBps)
        return SetupOutcome{}; // no link can carry this rate
    return openNow(cbrRequest(src, dst, rate_bps), policy);
}

Network::SetupOutcome
Network::openVbr(NodeId src, NodeId dst, double mean_bps,
                 double peak_bps, int priority, SetupPolicy policy)
{
    if (mean_bps <= 0.0 || peak_bps < mean_bps ||
        peak_bps > cfg.router.linkRateBps)
        return SetupOutcome{};
    return openNow(vbrRequest(src, dst, mean_bps, peak_bps, priority),
                   policy);
}

bool
Network::closeConnection(Handle h)
{
    if (find(h) == nullptr)
        return false;
    PcsConnection &conn = pcsSlots[h.slot];
    if (!conn.closing) {
        conn.closing = true;
        // mmr-lint: allow(hot-path-alloc) amortized: closingSlots is a
        // member; its capacity persists across cycles.
        closingSlots.push_back(h.slot);
    }
    return true;
}

void
Network::processPendingCloses()
{
    // closingSlots is maintained incrementally (closeConnection,
    // failLink), so a cycle without pending teardowns costs one
    // empty-check instead of a scan of every open connection.
    if (closingSlots.empty())
        return;
    // Teardown order is observable (credits return and output VCs free
    // as segments are removed), so walk the closing connections in
    // ascending label order.  Undrained connections stay on the list
    // for the next cycle, compacted in place.
    sortByLabel(closingSlots);
    std::size_t kept = 0;
    for (const std::uint32_t slot : closingSlots) {
        PcsConnection &conn = pcsSlots[slot];
        bool drained = true;
        for (std::size_t k = 0; k < conn.hops.size(); ++k) {
            const VcState &vc = hopVc(conn, k);
            mmr_assert(vc.conn() == conn.id, "missing segment during close");
            if (!vc.empty() || vc.pendingGrants() != 0) {
                drained = false;
                break;
            }
        }
        if (!drained || onWire(conn.id)) {
            closingSlots[kept++] = slot;
            continue;
        }
        for (std::size_t k = 0; k < conn.hops.size(); ++k) {
            const bool removed = routers[conn.hops[k].node]->removeSegment(
                hopInput(conn, k));
            mmr_assert(removed, "missing segment during close");
        }
        conn.inUse = false;
        ++conn.epoch; // every handle to this connection is now stale
        conn.hops.clear();
        // mmr-lint: allow(hot-path-alloc) amortized: free list grows
        // to the connection high-water mark, then recycles.
        pcsFreeSlots.push_back(slot);
    }
    // mmr-lint: allow(hot-path-alloc) shrinking resize: kept <= size.
    closingSlots.resize(kept);
}

bool
Network::onWire(ConnId id) const
{
    const auto carries = [id](const LinkFlit &lf) {
        return lf.flit.conn == id;
    };
    if (std::any_of(linkQueue.begin(), linkQueue.end(), carries))
        return true;
    // Landed this cycle: the evaluate phase deposits it after the
    // closes run, into the VC a teardown now would unbind.
    for (const ShardMailbox &box : mailboxes)
        if (std::any_of(box.arrivals.begin(), box.arrivals.end(), carries))
            return true;
    return false;
}

bool
Network::inject(Handle h, Flit f, Cycle now)
{
    if (!live(h))
        return false; // closing, failed or torn down
    const PcsConnection &conn = pcsSlots[h.slot];
    f.src = conn.src;
    f.dst = conn.dst;
    f.readyTime = now;
    if (!routers[conn.src]->inject(ChannelRef{niPort(conn.src), conn.srcVc},
                                   f)) {
        ++statInjectRejects;
        return false;
    }
    return true;
}

bool
Network::renegotiateBandwidth(Handle h, double new_rate_bps)
{
    const PcsConnection *it = find(h);
    if (it == nullptr || it->klass != TrafficClass::CBR)
        return false;
    const PcsConnection &conn = *it;

    // Each hop's reservation as its VC held it, for the rollback.
    std::vector<std::pair<unsigned, double>> held;
    held.reserve(conn.hops.size());
    std::size_t done = 0;
    for (; done < conn.hops.size(); ++done) {
        const VcState &vc = hopVc(conn, done);
        held.emplace_back(vc.allocCycles(), vc.interArrival());
        if (!routers[conn.hops[done].node]->renegotiateBandwidth(
                hopInput(conn, done), new_rate_bps))
            break;
    }
    if (done == conn.hops.size())
        return true;
    // Roll the hops that already accepted the new rate back to exactly
    // what they held: re-deriving a rate from the inter-arrival time
    // can round up to one cycle more than was granted.
    for (std::size_t k = 0; k < done; ++k) {
        const bool ok = routers[conn.hops[k].node]->renegotiateCycles(
            hopInput(conn, k), held[k].first, held[k].second);
        mmr_assert(ok, "rollback to the held reservation must always fit");
    }
    return false;
}

bool
Network::setConnectionPriority(Handle h, int priority)
{
    const PcsConnection *it = find(h);
    if (it == nullptr || it->klass != TrafficClass::VBR)
        return false;
    for (std::size_t k = 0; k < it->hops.size(); ++k)
        routers[it->hops[k].node]->setConnectionPriority(hopInput(*it, k),
                                                         priority);
    return true;
}

std::vector<Network::PathHop>
Network::connectionPath(Handle h) const
{
    std::vector<PathHop> path;
    const PcsConnection *it = find(h);
    if (it == nullptr)
        return path;
    path.reserve(it->hops.size());
    for (std::size_t k = 0; k < it->hops.size(); ++k)
        path.push_back(PathHop{it->hops[k].node, hopInput(*it, k)});
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
    mmr_assert(flow != kInvalidConn,
               "a datagram's flow tag names its segments");
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
        // Adaptive up*-down*: try the pick, then the other legal hops.
        const unsigned legal = updownRoutes->nextHops(
            p.node, p.flit.dst, p.flit.downPhase, rand, hopPorts);
        if (legal == 0) {
            ++statDatagramDrops;
            if (!ni_injection) {
                // The packet was holding a link VC and its credit at
                // the upstream router; hand both back.
                const Topology::PortInfo &up = topo.ports(p.node)[p.inPort];
                returnLostFlit(up.neighbor, up.remotePort, p.inVc, p.flit);
            }
            mmr_warn("datagram at node ", p.node, " for ", p.flit.dst,
                     " has no legal route; dropping");
            return true; // consumed (dropped)
        }
        for (unsigned k = 0; k < legal; ++k) {
            const PortId port = hopPorts[k];
            if (router.routing().freeOutputVcCount(port) > 0) {
                out = port;
                out_is_down = !updownRoutes->isUp(
                    p.node, topo.ports(p.node)[port].neighbor);
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
    seg.id = p.flit.conn;
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
    const bool ok = router.inject(ChannelRef{in, in_vc}, f);
    mmr_assert(ok, "deposit into a fresh datagram VC cannot fail");
    return true;
}

// mmr-lint: allow(hot-path-alloc) amortized: linkQueueNext,
// pendingArrivals and the shards' arrival lists are members; their
// capacity persists across cycles, so steady state recycles buffers
// instead of churning deque blocks.
void
Network::processArrivals(Cycle now)
{
    // Link flits whose latency has elapsed reach the downstream
    // router: stream flits go to its shard's arrival list, which the
    // shard deposits into their installed segments in the evaluate
    // phase; datagrams claim next-hop resources here, drawing from
    // `rand`.  Not-yet-due flits are kept, in FIFO order, by
    // compacting into the swap buffer.
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
            const Topology::PortInfo &up = topo.ports(lf.toNode)[lf.toPort];
            returnLostFlit(up.neighbor, up.remotePort, lf.vc, lf.flit);
            MMR_OBS_EVENT(TraceCat::Fault, "crc_drop", now,
                          lf.toNode, lf.flit.conn,
                          static_cast<std::int32_t>(lf.flit.src));
            continue;
        }
        // Wire time of this hop (latency plus any cycles spent parked
        // behind same-cycle arrivals): the LinkTransit latency stage.
        e2e.recordLinkTransit(cfg.linkLatency + (now - lf.arriveAt),
                              now);
        lf.flit.readyTime = now;
        if (lf.flit.isStream()) {
            mailboxes[shardOfNode(lf.toNode)].arrivals.push_back(lf);
            continue;
        }
        PendingArrival p;
        p.node = lf.toNode;
        p.inPort = lf.toPort;
        p.inVc = lf.vc;
        p.flit = lf.flit;
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
    // arrivals and pending closes.  What it shares across routers
    // stays here: probe state, `rand` draws of datagram placement, the
    // upstream credit and VC a CRC drop hands back, connection
    // teardown.  A landed stream flit touches only its own router, so
    // the router's shard deposits it, first thing in the phase.
    probeMgr->step(now);
    processArrivals(now);
    processPendingCloses();
    phaseCycle = now;
    pool->runPhase(now, evalPhase);
}

void
Network::advance(Cycle now)
{
    // The mailbox logs fill in this phase alone (see wireRouter), so
    // one drain covers the cycle.
    phaseCycle = now;
    pool->runPhase(now, advPhase);
    drainMailboxes(now);
}

void
Network::evaluateShard(unsigned s)
{
    // The routers' own flow control writes each landed flit into its
    // VC memory (§3.2), in link FIFO order, before any router of the
    // shard schedules.  Flits for one VC all land on one shard, and
    // deposits into different VCs commute, so this order is the
    // serial one.
    ShardMailbox &box = mailboxes[s];
    for (const LinkFlit &lf : box.arrivals)
        if (!routers[lf.toNode]->inject(ChannelRef{lf.toPort, lf.vc},
                                        lf.flit))
            ++box.injectRejects;
    box.arrivals.clear();
    for (NodeId n = s; n < routers.size(); n += numShards)
        routers[n]->evaluate(phaseCycle);
}

void
Network::advanceShard(unsigned s)
{
    for (NodeId n = s; n < routers.size(); n += numShards)
        routers[n]->advance(phaseCycle);
}

void
Network::drainMailboxes(Cycle now)
{
    // Deterministic merge by router id: router n's records are the
    // next run of shard (n mod S)'s log, so visiting n = 0..N-1 with
    // one cursor per shard replays every deferred side effect —
    // link-queue pushes, corrupt-hook RNG draws, upstream credit
    // returns, end-to-end FP accumulation — in ascending router order,
    // emission order within a router.  That is the serial loop's
    // order at every shard count, which is what keeps
    // networkResultDigest bit-identical across shard counts
    // (DESIGN.md §12).
    unsigned s = 0;
    for (NodeId n = 0; n < routers.size(); ++n) {
        ShardMailbox &box = mailboxes[s];
        for (; box.replayed < box.log.size() &&
               box.log[box.replayed].node == n;
             ++box.replayed)
            replay(box.log[box.replayed], now);
        if (++s == numShards)
            s = 0;
    }
    for (ShardMailbox &box : mailboxes) {
        mmr_assert(box.replayed == box.log.size(),
                   "mailbox log not in ascending router order");
        box.log.clear();
        box.replayed = 0;
        statInjectRejects += box.injectRejects;
        box.injectRejects = 0;
    }
}

void
Network::replay(const DeferredEvent &e, Cycle now)
{
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

    // Both ends of a link agree on its health — the fault model's own
    // bookkeeping is self-consistent.
    chk.add(
        "net-link-symmetry",
        [this](Cycle) {
            for (NodeId n = 0; n < topo.numNodes(); ++n) {
                for (const auto &port : topo.ports(n)) {
                    const bool here = port.up;
                    const bool there =
                        topo.ports(port.neighbor)[port.remotePort].up;
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

    // Every open PCS connection still has its segment bound to the
    // input VC of every hop along its path — teardown never leaves a
    // half-removed path behind, and no other segment took the VC.
    chk.add(
        "net-pcs-segments",
        [this](Cycle) {
            // Pool-slot order; a pure check, so any violation panics
            // regardless of visit order.
            for (const PcsConnection &conn : pcsSlots) {
                if (!conn.inUse)
                    continue;
                for (std::size_t k = 0; k < conn.hops.size(); ++k) {
                    if (hopVc(conn, k).conn() != conn.id) {
                        const ChannelRef in = hopInput(conn, k);
                        mmr_invariant_violated(
                            "net-pcs-segments", "connection ", conn.id,
                            " (", conn.src, "->", conn.dst,
                            ") has no segment at node ",
                            conn.hops[k].node, " input (", in.port, ",",
                            in.vc, ")");
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
        return static_cast<double>(openConnectionCount());
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
