#include "fault/fault_plan.hh"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>

#include "base/cli.hh"
#include "base/logging.hh"
#include "base/rng.hh"

namespace mmr
{

namespace
{

/** All undirected links as (low, high) node pairs, in the topology's
 * deterministic edge-insertion order. */
std::vector<std::pair<NodeId, NodeId>>
enumerateLinks(const Topology &topo)
{
    std::vector<std::pair<NodeId, NodeId>> out;
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        for (const auto &port : topo.ports(n))
            if (n < port.neighbor)
                out.emplace_back(n, port.neighbor);
    return out;
}

/**
 * @p from plus an exponential draw of mean @p mean in whole cycles, or
 * @p horizon once that reaches it (@p from <= @p horizon).  A time at
 * or past the horizon ends a link's walk, so saturating there moves no
 * event, and it keeps a huge mean from overflowing the conversion.
 */
Cycle
drawUntil(Rng &rng, Cycle from, double mean, Cycle horizon)
{
    const double x = rng.exponential(mean);
    if (!(x < static_cast<double>(horizon - from)))
        return horizon;
    return std::min(horizon, from + static_cast<Cycle>(x));
}

std::vector<std::string>
splitList(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream iss(s);
    while (std::getline(iss, item, sep))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace

FaultModel
parseFaultModel(const std::string &spec)
{
    FaultModel m;
    for (const std::string &kv : splitList(spec, ',')) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos)
            mmr_fatal("fault-model entry '", kv, "' is not key=value");
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        const std::string what = "fault-model key '" + key + "'";
        if (key == "fail")
            m.linkFailPer10k = parseReal(val, what, 0.0);
        else if (key == "repair")
            m.meanRepairCycles = parseCount(val, what);
        else if (key == "drop")
            m.probeDropRate = parseReal(val, what, 0.0, 1.0);
        else if (key == "corrupt")
            m.corruptRate = parseReal(val, what, 0.0, 1.0);
        else if (key == "horizon")
            m.horizon = parseCount(val, what);
        else if (key == "partition")
            m.allowPartition = parseCount(val, what, 1) != 0;
        else
            mmr_fatal("unknown fault-model key '", key,
                      "' (expect fail/repair/drop/corrupt/horizon/"
                      "partition)");
    }
    return m;
}

FaultPlan
FaultPlan::random(const Topology &topo, const FaultModel &model,
                  std::uint64_t seed)
{
    FaultPlan plan;
    plan.mdl = model;
    if (model.linkFailPer10k <= 0.0 || model.horizon == 0)
        return plan;

    // Candidate failure windows from independent per-link exponential
    // walks; a pairId ties each repair to its failure so suppressing
    // one suppresses both.
    struct Candidate
    {
        Cycle at;
        FaultEvent::Kind kind;
        NodeId a, b;
        unsigned pairId;
    };
    std::vector<Candidate> cands;
    Rng rng(seed);
    const Cycle horizon = model.horizon;
    const double mean_gap = 10000.0 / model.linkFailPer10k;
    unsigned pair_id = 0;
    for (const auto &[a, b] : enumerateLinks(topo)) {
        Cycle t = drawUntil(rng, 0, mean_gap, horizon);
        while (t < horizon) {
            cands.push_back(
                {t, FaultEvent::Kind::LinkDown, a, b, pair_id});
            if (model.meanRepairCycles == 0) {
                ++pair_id;
                break; // no repair: the link stays down forever
            }
            const Cycle up = drawUntil(
                rng, t + 1, double(model.meanRepairCycles), horizon);
            if (up < horizon)
                cands.push_back(
                    {up, FaultEvent::Kind::LinkUp, a, b, pair_id});
            ++pair_id;
            t = drawUntil(rng, up < horizon ? up + 1 : horizon, mean_gap,
                          horizon);
        }
    }

    // Chronological replay.  Repairs sort before failures at equal
    // cycles so a failure is judged against the freshest topology.
    std::sort(cands.begin(), cands.end(),
              [](const Candidate &x, const Candidate &y) {
                  if (x.at != y.at)
                      return x.at < y.at;
                  if (x.kind != y.kind)
                      return x.kind == FaultEvent::Kind::LinkUp;
                  return x.pairId < y.pairId;
              });
    // The replay fails and repairs the links of a copy of the topology
    // and asks it whether the graph is still connected.
    Topology live = topo;
    std::vector<bool> skipped(pair_id, false);
    for (const Candidate &c : cands) {
        if (c.kind == FaultEvent::Kind::LinkUp) {
            if (skipped[c.pairId])
                continue;
            live.setLinkUp(c.a, c.b, true);
        } else {
            live.setLinkUp(c.a, c.b, false);
            if (!model.allowPartition && !live.connected()) {
                live.setLinkUp(c.a, c.b, true);
                ++plan.skips;
                skipped[c.pairId] = true;
                continue;
            }
        }
        plan.schedule.push_back({c.at, c.kind, c.a, c.b});
    }
    return plan;
}

FaultPlan
FaultPlan::fromEvents(const std::string &spec, const Topology &topo)
{
    FaultPlan plan;
    for (const std::string &tok : splitList(spec, ';')) {
        const auto at_pos = tok.find('@');
        const auto colon = tok.find(':', at_pos);
        const auto dash = tok.find('-', colon);
        if (at_pos == std::string::npos || colon == std::string::npos ||
            dash == std::string::npos)
            mmr_fatal("bad fault event '", tok,
                      "' (expect down@CYCLE:A-B or up@CYCLE:A-B)");
        const std::string kind = tok.substr(0, at_pos);
        FaultEvent ev;
        if (kind == "down")
            ev.kind = FaultEvent::Kind::LinkDown;
        else if (kind == "up")
            ev.kind = FaultEvent::Kind::LinkUp;
        else
            mmr_fatal("bad fault event kind '", kind, "' in '", tok,
                      "'");
        const std::string what = "fault event '" + tok + "'";
        constexpr NodeId kMaxNode = std::numeric_limits<NodeId>::max();
        ev.at = parseCount(tok.substr(at_pos + 1, colon - at_pos - 1),
                           what + " cycle");
        ev.a = static_cast<NodeId>(parseCount(
            tok.substr(colon + 1, dash - colon - 1), what + " node",
            kMaxNode));
        ev.b = static_cast<NodeId>(
            parseCount(tok.substr(dash + 1), what + " node", kMaxNode));
        if (ev.a >= topo.numNodes() || ev.b >= topo.numNodes() ||
            !topo.hasLink(ev.a, ev.b))
            mmr_fatal("fault event '", tok,
                      "' names a link the topology does not have");
        plan.schedule.push_back(ev);
    }
    std::stable_sort(plan.schedule.begin(), plan.schedule.end(),
                     [](const FaultEvent &x, const FaultEvent &y) {
                         return x.at < y.at;
                     });
    return plan;
}

std::string
FaultPlan::toSpec() const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const FaultEvent &ev = schedule[i];
        if (i)
            oss << ';';
        oss << (ev.kind == FaultEvent::Kind::LinkDown ? "down" : "up")
            << '@' << ev.at << ':' << ev.a << '-' << ev.b;
    }
    return oss.str();
}

void
FaultPlan::printJson(std::ostream &os) const
{
    os << "{\"model\":{\"fail_per_10k\":" << mdl.linkFailPer10k
       << ",\"mean_repair_cycles\":" << mdl.meanRepairCycles
       << ",\"probe_drop_rate\":" << mdl.probeDropRate
       << ",\"corrupt_rate\":" << mdl.corruptRate
       << ",\"horizon\":" << mdl.horizon
       << ",\"allow_partition\":" << (mdl.allowPartition ? 1 : 0)
       << "},\"partition_skips\":" << skips << ",\"events\":[";
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const FaultEvent &ev = schedule[i];
        if (i)
            os << ',';
        os << "{\"at\":" << ev.at << ",\"kind\":\""
           << (ev.kind == FaultEvent::Kind::LinkDown ? "down" : "up")
           << "\",\"a\":" << ev.a << ",\"b\":" << ev.b << '}';
    }
    os << "]}";
}

} // namespace mmr
