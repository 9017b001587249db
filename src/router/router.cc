#include "router/router.hh"

#include <algorithm>
#include <cstdint>

#include "base/logging.hh"
#include "base/simclock.hh"
#include "obs/flight_recorder.hh"
#include "traffic/rates.hh"

namespace mmr
{

namespace
{

/** Runs validate() before any member initializer builds a part from
 * @p c: the admission controller, routing unit and credit manager
 * assert on the values validate() rejects with a message. */
const RouterConfig &
validated(const RouterConfig &c)
{
    c.validate();
    return c;
}

} // namespace

MmrRouter::MmrRouter(const RouterConfig &cfg_, MetricsRecorder *metrics_)
    : cfg(validated(cfg_)), metrics(metrics_), rand(cfg_.seed),
      sched(SwitchScheduler::create(cfg_)),
      admit(cfg_.numPorts, cfg_.cyclesPerRound(), cfg_.concurrencyFactor,
            cfg_.bestEffortReserve),
      routes(cfg_.numPorts, cfg_.vcsPerPort),
      creditMgr(cfg_.numPorts, cfg_.vcsPerPort, cfg_.vcBufferFlits)
{
    // Anderson et al.'s iterative matching arbitrates randomly, but
    // each queue offers its *oldest* cell — so Autonet mode pairs the
    // random switch arbiter with age-ordered candidate selection
    // rather than random selection.
    const bool random_candidates = false;
    inputMems.reserve(cfg.numPorts);
    linkScheds.reserve(cfg.numPorts);
    // A matching holds at most one grant per input port.
    currentStamps.reserve(cfg.numPorts);
    nextStamps.reserve(cfg.numPorts);
    // A matching, the crossbar-configuration scratch and the per-port
    // candidate lists all have architectural bounds (one grant per
    // input; `candidates` offers per link): size them up front so a
    // congestion peak never allocates mid-measurement.
    currentMatching.reserve(cfg.numPorts);
    nextMatching.reserve(cfg.numPorts);
    configScratch.reserve(cfg.numPorts);
    lastConfig.reserve(cfg.numPorts);
    PriorityPolicy policy = PriorityPolicy::Biased;
    if (cfg.scheduler == SchedulerKind::FixedPriority)
        policy = PriorityPolicy::Fixed;
    else if (cfg.scheduler == SchedulerKind::AgePriority ||
             cfg.scheduler == SchedulerKind::Autonet)
        policy = PriorityPolicy::Age;
    for (PortId p = 0; p < cfg.numPorts; ++p) {
        inputMems.emplace_back(cfg.vcsPerPort, cfg.vcBufferFlits);
        linkScheds.emplace_back(p, &inputMems.back(), cfg.numPorts,
                                policy, cfg.cyclesPerRound(),
                                random_candidates);
    }
    candScratch.resize(cfg.numPorts);
    for (auto &cands : candScratch)
        cands.reserve(cfg.candidates);
    // Stand-alone routers deliver to an infinite sink by default.
    creditMgr.setInfinite(true);
}

VcMemory &
MmrRouter::inputMemory(PortId p)
{
    mmr_assert(p < inputMems.size(), "input port out of range");
    return inputMems[p];
}

LinkScheduler &
MmrRouter::linkScheduler(PortId p)
{
    mmr_assert(p < linkScheds.size(), "input port out of range");
    return linkScheds[p];
}

ConnId
MmrRouter::nextLocalConn()
{
    return localConnSeq++;
}

// ---------------------------------------------------------------------
// Connection management
// ---------------------------------------------------------------------

ConnId
MmrRouter::openCbr(PortId in, PortId out, double rate_bps)
{
    if (rate_bps <= 0.0 || rate_bps > cfg.linkRateBps)
        return kInvalidConn; // a link can never carry this rate
    const unsigned cycles =
        cyclesPerRound(rate_bps, cfg.linkRateBps, cfg.cyclesPerRound());
    if (!admit.tryAdmitCbr(out, cycles)) {
        MMR_OBS_EVENT(TraceCat::Admission, "admit_reject",
                      simclock::now(), out, kInvalidConn,
                      static_cast<std::int32_t>(cycles));
        return kInvalidConn;
    }

    SegmentParams p;
    p.id = nextLocalConn();
    p.klass = TrafficClass::CBR;
    p.in = in;
    p.inVc = routes.allocInputVc(in);
    p.out = out;
    p.outVc = routes.allocOutputVc(out);
    p.allocCycles = cycles;
    p.interArrival = interArrivalCycles(rate_bps, cfg.linkRateBps);
    if (p.inVc == kInvalidVc || p.outVc == kInvalidVc ||
        !installSegment(p)) {
        if (p.inVc != kInvalidVc)
            routes.freeInputVc(in, p.inVc);
        if (p.outVc != kInvalidVc)
            routes.freeOutputVc(out, p.outVc);
        admit.releaseCbr(out, cycles);
        return kInvalidConn;
    }
    MMR_OBS_EVENT(TraceCat::Admission, "admit_cbr", simclock::now(),
                  out, p.id, static_cast<std::int32_t>(cycles));
    return p.id;
}

ConnId
MmrRouter::openVbr(PortId in, PortId out, double mean_bps,
                   double peak_bps, int priority)
{
    if (mean_bps <= 0.0 || peak_bps < mean_bps ||
        peak_bps > cfg.linkRateBps)
        return kInvalidConn;
    const unsigned round = cfg.cyclesPerRound();
    const unsigned perm = cyclesPerRound(mean_bps, cfg.linkRateBps, round);
    const unsigned peak = cyclesPerRound(peak_bps, cfg.linkRateBps, round);
    if (!admit.tryAdmitVbr(out, perm, peak)) {
        MMR_OBS_EVENT(TraceCat::Admission, "admit_reject",
                      simclock::now(), out, kInvalidConn,
                      static_cast<std::int32_t>(perm),
                      static_cast<std::int32_t>(peak));
        return kInvalidConn;
    }

    SegmentParams p;
    p.id = nextLocalConn();
    p.klass = TrafficClass::VBR;
    p.in = in;
    p.inVc = routes.allocInputVc(in);
    p.out = out;
    p.outVc = routes.allocOutputVc(out);
    p.permCycles = perm;
    p.peakCycles = peak;
    p.interArrival = interArrivalCycles(mean_bps, cfg.linkRateBps);
    p.priority = priority;
    if (p.inVc == kInvalidVc || p.outVc == kInvalidVc ||
        !installSegment(p)) {
        if (p.inVc != kInvalidVc)
            routes.freeInputVc(in, p.inVc);
        if (p.outVc != kInvalidVc)
            routes.freeOutputVc(out, p.outVc);
        admit.releaseVbr(out, perm, peak);
        return kInvalidConn;
    }
    MMR_OBS_EVENT(TraceCat::Admission, "admit_vbr", simclock::now(),
                  out, p.id, static_cast<std::int32_t>(perm),
                  static_cast<std::int32_t>(peak));
    return p.id;
}

ConnId
MmrRouter::openBestEffort(PortId in, PortId out)
{
    SegmentParams p;
    p.id = nextLocalConn();
    p.klass = TrafficClass::BestEffort;
    p.in = in;
    p.inVc = routes.allocInputVc(in);
    p.out = out;
    p.outVc = routes.allocOutputVc(out);
    if (p.inVc == kInvalidVc || p.outVc == kInvalidVc ||
        !installSegment(p)) {
        if (p.inVc != kInvalidVc)
            routes.freeInputVc(in, p.inVc);
        if (p.outVc != kInvalidVc)
            routes.freeOutputVc(out, p.outVc);
        return kInvalidConn;
    }
    return p.id;
}

// mmr-lint: allow(hot-path-alloc) setup path: a segment is installed
// once per connection/probe hop, never on the steady-state data path.
bool
MmrRouter::installSegment(const SegmentParams &p)
{
    if (p.id == kInvalidConn || p.in >= cfg.numPorts ||
        p.out >= cfg.numPorts || p.inVc >= cfg.vcsPerPort ||
        p.outVc >= cfg.vcsPerPort)
        return false;
    if (conns.contains(p.id))
        return false;

    VcState &vc = inputMems[p.in].vc(p.inVc);
    if (vc.bound())
        return false;

    switch (p.klass) {
      case TrafficClass::CBR:
        vc.bindCbr(p.id, p.allocCycles, p.interArrival);
        break;
      case TrafficClass::VBR:
        vc.bindVbr(p.id, p.permCycles, p.peakCycles, p.interArrival,
                   p.priority);
        break;
      case TrafficClass::BestEffort:
        vc.bindBestEffort(p.id);
        break;
      case TrafficClass::Control:
        vc.bindControl(p.id);
        break;
    }
    // Credits are deliberately NOT touched here: they track the
    // downstream buffer occupancy of the link VC, which outlives any
    // one segment (a reused output VC may still have a flit draining
    // downstream).
    vc.setMapping(p.out, p.outVc);
    vc.setTieBreak(rand.uniform());
    routes.map(ChannelRef{p.in, p.inVc}, ChannelRef{p.out, p.outVc});
    inputMems[p.in].markSchedDirty(p.inVc);
    conns.insert(p.id, p);
    if (p.releaseWhenEmpty)
        ++autoReleaseConns;
    MMR_OBS_EVENT(TraceCat::Setup, "vc_alloc", simclock::now(),
                  p.in, p.id, static_cast<std::int32_t>(p.inVc),
                  static_cast<std::int32_t>(p.outVc));
    return true;
}

void
MmrRouter::removeSegment(ConnId id)
{
    const SegmentParams *found = conns.find(id);
    mmr_assert(found != nullptr, "removing unknown connection ", id);
    const SegmentParams p = *found;

    VcState &vc = inputMems[p.in].vc(p.inVc);
    mmr_assert(vc.empty() && vc.pendingGrants() == 0,
               "removing segment with in-flight flits on conn ", id);
    vc.release();
    inputMems[p.in].markSchedDirty(p.inVc);
    routes.unmap(ChannelRef{p.in, p.inVc});
    if (p.ownsInputVc)
        routes.freeInputVc(p.in, p.inVc);
    if (p.ownsOutputVc)
        routes.freeOutputVc(p.out, p.outVc);

    if (p.klass == TrafficClass::CBR && p.allocCycles > 0)
        admit.releaseCbr(p.out, p.allocCycles);
    else if (p.klass == TrafficClass::VBR)
        admit.releaseVbr(p.out, p.permCycles, p.peakCycles);

    conns.erase(id);
    if (p.releaseWhenEmpty) {
        mmr_assert(autoReleaseConns > 0,
                   "release-when-empty count underflow");
        --autoReleaseConns;
    }
    if (segmentRemoved)
        segmentRemoved(p);
}

bool
MmrRouter::close(ConnId id)
{
    if (!conns.contains(id))
        return false;
    removeSegment(id);
    return true;
}

const SegmentParams *
MmrRouter::connection(ConnId id) const
{
    return conns.find(id);
}

// ---------------------------------------------------------------------
// Dynamic bandwidth management
// ---------------------------------------------------------------------

bool
MmrRouter::renegotiateBandwidth(ConnId id, double new_rate_bps)
{
    SegmentParams *found = conns.find(id);
    if (found == nullptr || found->klass != TrafficClass::CBR)
        return false;
    if (new_rate_bps <= 0.0 || new_rate_bps > cfg.linkRateBps)
        return false;
    SegmentParams &p = *found;
    const unsigned cycles = cyclesPerRound(new_rate_bps, cfg.linkRateBps,
                                           cfg.cyclesPerRound());
    if (!admit.renegotiateCbr(p.out, p.allocCycles, cycles))
        return false;
    p.allocCycles = cycles;
    p.interArrival = interArrivalCycles(new_rate_bps, cfg.linkRateBps);
    VcState &vc = inputMems[p.in].vc(p.inVc);
    vc.setCbrAlloc(cycles);
    vc.setInterArrival(p.interArrival);
    inputMems[p.in].markSchedDirty(p.inVc); // quota moved
    return true;
}

bool
MmrRouter::setConnectionPriority(ConnId id, int priority)
{
    SegmentParams *p = conns.find(id);
    if (p == nullptr || p->klass != TrafficClass::VBR)
        return false;
    p->priority = priority;
    inputMems[p->in].vc(p->inVc).setUserPriority(priority);
    return true;
}

// ---------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------

bool
MmrRouter::inject(ConnId id, Flit f)
{
    const SegmentParams *found = conns.find(id);
    mmr_assert(found != nullptr, "inject on unknown connection ", id);
    const SegmentParams &p = *found;
    f.conn = id;
    f.klass = p.klass;
    if (!inputMems[p.in].deposit(p.inVc, f)) {
        ++statInjectReject;
        return false;
    }
    ++statInjected;
    MMR_OBS_EVENT(TraceCat::Flit, "inject", f.readyTime, p.in, id,
                  static_cast<std::int32_t>(p.inVc));
    return true;
}

bool
MmrRouter::injectRaw(PortId in, VcId vc, const Flit &f)
{
    mmr_assert(in < cfg.numPorts && vc < cfg.vcsPerPort,
               "injectRaw target out of range");
    if (!inputMems[in].deposit(vc, f)) {
        ++statInjectReject;
        return false;
    }
    ++statInjected;
    MMR_OBS_EVENT(TraceCat::Flit, "inject", f.readyTime, in, f.conn,
                  static_cast<std::int32_t>(vc));
    return true;
}

bool
MmrRouter::creditAvailable(const VcState &vc) const
{
    if (creditMgr.isInfinite())
        return true;
    return creditMgr.credits(vc.outPort(), vc.outVc()) >
           vc.pendingGrants();
}

// ---------------------------------------------------------------------
// Clocked
// ---------------------------------------------------------------------

void
MmrRouter::evaluate(Cycle now)
{
    for (PortId p = 0; p < cfg.numPorts; ++p) {
        candScratch[p].clear();
        linkScheds[p].collectCandidates(now, cfg.candidates, creditMgr,
                                        rand, candScratch[p]);
        if (!creditMgr.isInfinite()) {
            // Re-check credits against pending grants (the coarse
            // credits_available bit cannot see in-flight grants).
            auto &v = candScratch[p];
            v.erase(std::remove_if(
                        v.begin(), v.end(),
                        [this](const Candidate &c) {
                            return !creditAvailable(
                                inputMems[c.in].vc(c.vc));
                        }),
                    v.end());
        }
    }

    sched->scheduleInto(candScratch, rand, nextMatching);

    nextStamps.clear();
    for (const Candidate &c : nextMatching) {
        // mmr-lint: allow(hot-path-alloc) amortized: nextStamps'
        // capacity is reserved in the constructor (one slot per port
        // covers any matching) and recycled via the swap in advance().
        nextStamps.emplace_back();
        inputMems[c.in].vc(c.vc).noteGrantIssued(now,
                                                 nextStamps.back());
        // The pending grant shrinks the ungranted-flit count and eats
        // round quota: the link scheduler must re-derive this VC's
        // eligibility bit.
        inputMems[c.in].markSchedDirty(c.vc);
        MMR_OBS_EVENT(TraceCat::Sched, "grant", now, c.in, c.conn,
                      static_cast<std::int32_t>(c.vc),
                      static_cast<std::int32_t>(c.out));
    }

    statMatchSize.add(static_cast<double>(nextMatching.size()));
    if (FlightRecorder *fr = FlightRecorder::active())
        fr->counter(TraceCat::Sched, "sched.matching_size", now,
                    static_cast<std::int32_t>(nextMatching.size()));
}

void
MmrRouter::deliver(const Candidate &grant, Flit &&flit, Cycle now,
                   const StageSample &stages)
{
    ++statForwarded;
    ++statByClass[static_cast<int>(flit.klass)];
    MMR_OBS_EVENT(TraceCat::Flit, "xmit", now, grant.out,
                  grant.conn, static_cast<std::int32_t>(grant.vc),
                  static_cast<std::int32_t>(grant.outVc));
    if (metrics) {
        metrics->recordDeparture(
            grant.conn, now,
            static_cast<double>(now - flit.readyTime), flit.klass,
            &stages);
    }
    if (creditReturn)
        creditReturn(grant.in, grant.vc, now);
    if (sink)
        sink(grant.out, grant.outVc, flit, now);
}

void
MmrRouter::maybeAutoRelease(ConnId id, PortId in, VcId in_vc)
{
    // Fast path for the steady state: with no release-when-empty
    // connections installed (the common case — only VCT datagram
    // segments set the flag), skip the per-forwarded-flit map lookup.
    if (autoReleaseConns == 0)
        return;
    const SegmentParams *found = conns.find(id);
    if (found == nullptr || !found->releaseWhenEmpty)
        return;
    const VcState &vc = inputMems[in].vc(in_vc);
    if (vc.empty() && vc.pendingGrants() == 0)
        removeSegment(id);
}

// mmr-lint: allow(hot-path-alloc) amortized: configScratch is a member
// whose capacity persists across cycles (see test_zero_alloc).
void
MmrRouter::applyMatching(Cycle now)
{
    mmr_assert(currentStamps.size() == currentMatching.size(),
               "matching and stamp vectors fell out of step");
    for (std::size_t gi = 0; gi < currentMatching.size(); ++gi) {
        const Candidate &grant = currentMatching[gi];
        VcState &vc = inputMems[grant.in].vc(grant.vc);
        mmr_assert(!vc.empty(), "granted VC (", grant.in, ",", grant.vc,
                   ") is empty at apply time");
        Flit flit = vc.pop();
        // Stamps travel with the matching (same index = same grant):
        // they attribute the flit's delay to the pipeline stages.
        vc.noteGrantApplied();
        const VcState::GrantStamp &stamp = currentStamps[gi];
        StageSample stages;
        stages.sourceQueue = flit.readyTime > flit.createTime
                                 ? flit.readyTime - flit.createTime
                                 : 0;
        stages.vcResidency = stamp.vcWait;
        stages.arbWait = stamp.arbWait;
        // The stamp keeps only the low 32 bits of the issue cycle;
        // wrap-around subtraction recovers the (small) pipeline delay.
        stages.switchTraversal = static_cast<std::uint32_t>(now) -
                                 stamp.grantCycle;
        vc.noteServiced();
        inputMems[grant.in].noteDrained(grant.vc);
        creditMgr.consume(grant.out, grant.outVc);
        MMR_OBS_EVENT(TraceCat::Credit, "credit_consume", now,
                      grant.out, grant.conn,
                      static_cast<std::int32_t>(grant.outVc),
                      static_cast<std::int32_t>(
                          creditMgr.credits(grant.out, grant.outVc)));
        deliver(grant, std::move(flit), now, stages);
        maybeAutoRelease(grant.conn, grant.in, grant.vc);
    }

    if (metrics) {
        metrics->recordOutputSlots(
            static_cast<unsigned>(currentMatching.size()), cfg.numPorts,
            now);
    }

    // Reconfiguration accounting for the multiplexed crossbar: the
    // switch resets whenever the port assignment changes.
    configScratch.clear();
    for (const Candidate &g : currentMatching)
        configScratch.emplace_back(g.in, g.out);
    std::sort(configScratch.begin(), configScratch.end());
    reconfig.note(configScratch == lastConfig);
    lastConfig.swap(configScratch);
}

void
MmrRouter::advance(Cycle now)
{
    applyMatching(now);
    // Swap instead of move-assign: the spent matching's capacity is
    // recycled as next cycle's scratch.
    currentMatching.swap(nextMatching);
    nextMatching.clear();
    currentStamps.swap(nextStamps);
    nextStamps.clear();
}

std::uint64_t
MmrRouter::forwardedByClass(TrafficClass c) const
{
    return statByClass[static_cast<int>(c)];
}

// ---------------------------------------------------------------------
// Invariant auditing
// ---------------------------------------------------------------------

void
MmrRouter::registerInvariants(InvariantChecker &chk,
                              unsigned sweep_period,
                              const std::string &prefix,
                              ExtraDemandFn extra_demand)
{
    // Flit conservation (§3.1: credit-based flow control "guarantees
    // flits are never dropped").  Every flit that entered a VC memory
    // is either still buffered or was forwarded through the crossbar.
    // Occupancy is read from the per-memory counter (O(P) rather than
    // O(P*V)); the vc-occupancy invariant below cross-checks that
    // counter against the FIFO ground truth on the same stride, so a
    // flit removed behind the router's back is still caught.
    chk.add(
        prefix + "flit-conservation",
        [this](Cycle) {
            std::uint64_t buffered = 0;
            for (const VcMemory &m : inputMems)
                buffered += m.occupancy();
            if (statInjected != statForwarded + buffered) {
                mmr_invariant_violated(
                    "flit-conservation", statInjected,
                    " flits injected != ", statForwarded,
                    " forwarded through the switch + ", buffered,
                    " still buffered");
            }
        },
        sweep_period);

    // VC memory occupancy bookkeeping matches the FIFO ground truth.
    chk.add(
        prefix + "vc-occupancy",
        [this](Cycle) {
            for (const VcMemory &m : inputMems)
                m.auditOccupancy();
        },
        sweep_period);

    // VC state machine legality: free VCs hold nothing, mapped VCs
    // are bound, pending grants are covered by buffered flits.
    chk.add(
        prefix + "vc-legality",
        [this](Cycle) {
            for (const VcMemory &m : inputMems)
                m.auditLegality();
        },
        sweep_period);

    // Admission ledger (§4.2): the per-link allocated/peak registers
    // equal the sum over installed segments, and stay within the round
    // minus the best-effort reserve.
    ledgerAlloc.assign(cfg.numPorts, 0);
    ledgerPeak.assign(cfg.numPorts, 0);
    chk.add(
        prefix + "admission-ledger",
        [this, extra_demand = std::move(extra_demand)](Cycle) {
            std::vector<unsigned> &alloc = ledgerAlloc;
            std::vector<unsigned> &peak = ledgerPeak;
            std::fill(alloc.begin(), alloc.end(), 0u);
            std::fill(peak.begin(), peak.end(), 0u);
            if (extra_demand)
                extra_demand(alloc, peak);
            // Slot order; commutative integer sums into per-port
            // accumulators, so visit order cannot leak into results.
            conns.forEach([&](ConnId, const SegmentParams &p) {
                if (p.klass == TrafficClass::CBR) {
                    alloc[p.out] += p.allocCycles;
                } else if (p.klass == TrafficClass::VBR) {
                    alloc[p.out] += p.permCycles;
                    peak[p.out] += p.peakCycles;
                }
            });
            const double peak_limit =
                static_cast<double>(admit.reservableCycles()) *
                admit.concurrency();
            for (PortId o = 0; o < cfg.numPorts; ++o) {
                if (admit.allocatedCycles(o) != alloc[o]) {
                    mmr_invariant_violated(
                        "admission-ledger", "output ", o,
                        ": allocated register ",
                        admit.allocatedCycles(o),
                        " != sum of bound segments ", alloc[o]);
                }
                if (admit.peakCycles(o) != peak[o]) {
                    mmr_invariant_violated(
                        "admission-ledger", "output ", o,
                        ": peak register ", admit.peakCycles(o),
                        " != sum of bound segments ", peak[o]);
                }
                if (admit.allocatedCycles(o) >
                    admit.reservableCycles()) {
                    mmr_invariant_violated(
                        "admission-ledger", "output ", o,
                        ": allocated ", admit.allocatedCycles(o),
                        " cycles/round exceeds the reservable ",
                        admit.reservableCycles(),
                        " (round minus best-effort reserve)");
                }
                if (static_cast<double>(admit.peakCycles(o)) >
                    peak_limit) {
                    mmr_invariant_violated(
                        "admission-ledger", "output ", o, ": peak ",
                        admit.peakCycles(o),
                        " cycles/round exceeds reservable x "
                        "concurrency = ", peak_limit);
                }
            }
        },
        sweep_period);

    // Crossbar matching validity: the matching applied next cycle
    // grants each input and each output at most once (§3.3).
    chk.add(prefix + "matching-validity", [this](Cycle) {
        SwitchScheduler::auditMatching(currentMatching, cfg.numPorts,
                                       sched->allowsOutputSharing());
    });

    // Credit conservation (§4.2), internal ledger form.
    creditMgr.registerInvariants(chk, nullptr, sweep_period, prefix);
}

// ---------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------

void
MmrRouter::registerStats(StatsRegistry &reg, const std::string &prefix,
                         StatsDetail detail)
{
    reg.addCounter(prefix + "flits.injected", &statInjected);
    reg.addCounter(prefix + "flits.forwarded", &statForwarded);
    reg.addCounter(prefix + "flits.inject_rejects", &statInjectReject);
    reg.addCounter(prefix + "flits.cbr",
                   &statByClass[static_cast<int>(TrafficClass::CBR)]);
    reg.addCounter(prefix + "flits.vbr",
                   &statByClass[static_cast<int>(TrafficClass::VBR)]);
    reg.addCounter(
        prefix + "flits.best_effort",
        &statByClass[static_cast<int>(TrafficClass::BestEffort)]);
    reg.addCounter(
        prefix + "flits.control",
        &statByClass[static_cast<int>(TrafficClass::Control)]);

    reg.addGauge(prefix + "sched.matching_size.mean",
                 [this] { return statMatchSize.mean(); });
    reg.addCounter(prefix + "sched.matching_size.count", [this] {
        return static_cast<double>(statMatchSize.count());
    });
    reg.addCounter(prefix + "sched.reconfigs", [this] {
        return static_cast<double>(reconfig.reconfigurations());
    });
    reg.addGauge(prefix + "sched.reconfig_rate",
                 [this] { return reconfig.reconfigRate(); });

    reg.addCounter(prefix + "credit.consumed",
                   [this] {
                       return static_cast<double>(
                           creditMgr.consumedCount());
                   });
    reg.addCounter(prefix + "credit.replenished",
                   [this] {
                       return static_cast<double>(
                           creditMgr.replenishedCount());
                   });

    reg.addGauge(prefix + "connections", [this] {
        return static_cast<double>(conns.size());
    });

    if (detail == StatsDetail::Aggregate)
        return;

    for (PortId p = 0; p < cfg.numPorts; ++p) {
        const std::string in = prefix + "in" + std::to_string(p) + ".";
        reg.addGauge(in + "occupancy", [this, p] {
            return static_cast<double>(inputMems[p].occupancy());
        });
        reg.addCounter(in + "overflows", [this, p] {
            return static_cast<double>(inputMems[p].overflowCount());
        });

        const std::string out =
            prefix + "admission.out" + std::to_string(p) + ".";
        reg.addGauge(out + "allocated_cycles", [this, p] {
            return static_cast<double>(admit.allocatedCycles(p));
        });
        reg.addGauge(out + "peak_cycles", [this, p] {
            return static_cast<double>(admit.peakCycles(p));
        });
        reg.addGauge(out + "available_cycles", [this, p] {
            return static_cast<double>(admit.availableCycles(p));
        });

        if (detail != StatsDetail::PerVc)
            continue;
        for (VcId v = 0; v < cfg.vcsPerPort; ++v) {
            reg.addGauge(in + "vc" + std::to_string(v) + ".occupancy",
                         [this, p, v] {
                             return static_cast<double>(
                                 inputMems[p].vc(v).depth());
                         });
        }
    }
}

} // namespace mmr
