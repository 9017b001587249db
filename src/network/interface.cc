#include "network/interface.hh"

#include "base/logging.hh"

namespace mmr
{

NetworkInterface::NetworkInterface(Network &net_, NodeId host_,
                                   std::uint64_t seed)
    : net(net_), host(host_), rng(seed)
{
    mmr_assert(host < net.numNodes(), "host node out of range");
}

bool
NetworkInterface::openCbrStream(NodeId dst, double rate_bps,
                                SetupPolicy policy)
{
    const auto outcome = net.openCbr(host, dst, rate_bps, policy);
    if (!outcome.accepted) {
        ++refused;
        return false;
    }
    RecoverySpec spec;
    spec.dst = dst;
    spec.klass = TrafficClass::CBR;
    spec.rateOrMeanBps = rate_bps;
    auto source = std::make_unique<CbrSource>(
        rate_bps, net.routerAt(host).config().linkRateBps, rng);
    addStream(outcome, spec, std::move(source));
    return true;
}

bool
NetworkInterface::openVbrStream(NodeId dst, const VbrProfile &profile,
                                int priority, SetupPolicy policy)
{
    const double peak = profile.meanRateBps * profile.peakToMean;
    const auto outcome =
        net.openVbr(host, dst, profile.meanRateBps, peak, priority,
                    policy);
    if (!outcome.accepted) {
        ++refused;
        return false;
    }
    const RouterConfig &rc = net.routerAt(host).config();
    RecoverySpec spec;
    spec.dst = dst;
    spec.klass = TrafficClass::VBR;
    spec.rateOrMeanBps = profile.meanRateBps;
    spec.peakBps = peak;
    spec.priority = priority;
    auto source = std::make_unique<VbrSource>(profile, rc.linkRateBps,
                                              rc.flitBits, rng);
    addStream(outcome, spec, std::move(source));
    return true;
}

bool
NetworkInterface::openTraceStream(NodeId dst,
                                  const std::string &trace_path,
                                  double fps, double peak_to_mean,
                                  int priority, SetupPolicy policy)
{
    mmr_assert(peak_to_mean >= 1.0, "peak/mean ratio below 1");
    const RouterConfig &rc = net.routerAt(host).config();
    // Two-step construction: the trace's own mean rate defines both
    // the permanent bandwidth and (scaled) the declared peak.
    const auto trace = loadFrameTrace(trace_path);
    double total_bits = 0.0;
    for (std::uint64_t bits : trace)
        total_bits += static_cast<double>(bits);
    const double mean =
        total_bits / static_cast<double>(trace.size()) * fps;
    const double peak = mean * peak_to_mean;
    if (peak > rc.linkRateBps) {
        ++refused;
        return false; // no link can carry the declared peak
    }
    auto source = std::make_unique<TraceVbrSource>(
        trace, fps, peak, rc.linkRateBps, rc.flitBits, rng);
    const auto outcome =
        net.openVbr(host, dst, mean, peak, priority, policy);
    if (!outcome.accepted) {
        ++refused;
        return false;
    }
    RecoverySpec spec;
    spec.dst = dst;
    spec.klass = TrafficClass::VBR;
    spec.rateOrMeanBps = mean;
    spec.peakBps = peak;
    spec.priority = priority;
    addStream(outcome, spec, std::move(source));
    return true;
}

void
NetworkInterface::addStream(const Network::SetupOutcome &opened,
                            RecoverySpec spec,
                            std::unique_ptr<TrafficSource> source)
{
    spec.src = host;
    Stream s;
    s.conn = opened.id;
    s.handle = opened.handle;
    s.spec = spec;
    s.source = std::move(source);
    if (recovery)
        recovery->adopt(s.conn, spec);
    streams.push_back(std::move(s));
}

void
NetworkInterface::attachRecovery(RecoveryManager *mgr)
{
    recovery = mgr;
    if (!recovery)
        return;
    for (const Stream &s : streams)
        recovery->adopt(s.conn, s.spec);
}

bool
NetworkInterface::pollRecovery(Stream &s)
{
    if (!s.recovering) {
        // First sight of the failure: the dead path's backlog is
        // abandoned (those flits are counted by the network as lost).
        ++lost;
        s.backlog.clear();
        s.recovering = true;
    }
    RecoveryStatus st;
    if (!recovery || !recovery->pollStatus(s.conn, st))
        return false; // no manager, or failed while unadopted: retire
    switch (st.state) {
      case RecoveryState::Recovering:
        return true; // keep waiting; tick() drops arrivals meanwhile
      case RecoveryState::Recovered:
        s.conn = st.replacement;
        s.handle = st.replacementHandle;
        s.recovering = false;
        ++reestablished;
        return true;
      case RecoveryState::Abandoned:
        return false;
    }
    return false;
}

void
NetworkInterface::addBestEffortFlow(NodeId dst, double rate_bps)
{
    if (beFlows.size() == kBestEffortTagsPerHost)
        mmr_panic("host ", host, " spent its best-effort tag window: ",
                  kBestEffortTagsPerHost, " flows");
    BeFlow flow;
    flow.dst = dst;
    flow.flow = kBestEffortTagBase + host * kBestEffortTagsPerHost +
                static_cast<ConnId>(beFlows.size());
    flow.source = std::make_unique<PoissonSource>(
        rate_bps, net.routerAt(host).config().linkRateBps, rng);
    beFlows.push_back(std::move(flow));
}

void
NetworkInterface::tick(Cycle now)
{
    // Streams whose connection stopped taking flits (link failure, or
    // a close from outside) are recovered or retired before any
    // injection work.
    for (std::size_t i = 0; i < streams.size();) {
        Stream &s = streams[i];
        if (!s.recovering && net.live(s.handle)) {
            ++i;
            continue;
        }
        if (pollRecovery(s)) {
            ++i;
        } else {
            streams.erase(streams.begin() +
                          static_cast<std::ptrdiff_t>(i));
        }
    }

    for (Stream &s : streams) {
        if (s.recovering) {
            // Graceful degradation while the RecoveryManager searches
            // for a replacement path: the source keeps producing (so
            // its random stream stays aligned) but nothing can be
            // injected; the discards are accounted, never wedged.
            droppedInRecovery += s.source->arrivals(now);
            continue;
        }
        const unsigned n = s.source->arrivals(now);
        // Drain the back-pressure backlog first, preserving order.
        while (!s.backlog.empty() &&
               net.inject(s.handle, s.backlog.front(), now)) {
            s.backlog.pop_front();
            ++injected;
        }
        for (unsigned k = 0; k < n; ++k) {
            Flit f;
            f.seq = s.seq++;
            f.createTime = now;
            if (!s.backlog.empty() || !net.inject(s.handle, f, now))
                s.backlog.push_back(f);
            else
                ++injected;
        }
    }
    for (BeFlow &flow : beFlows) {
        const unsigned n = flow.source->arrivals(now);
        for (unsigned k = 0; k < n; ++k) {
            net.sendDatagram(host, flow.dst, TrafficClass::BestEffort,
                             flow.flow, now, flow.seq++);
            ++injected;
        }
    }
}

std::uint64_t
NetworkInterface::backloggedFlits() const
{
    std::uint64_t n = 0;
    for (const Stream &s : streams)
        n += s.backlog.size();
    return n;
}

std::vector<ConnId>
NetworkInterface::connections() const
{
    std::vector<ConnId> ids;
    ids.reserve(streams.size());
    for (const Stream &s : streams)
        ids.push_back(s.conn);
    return ids;
}

} // namespace mmr
