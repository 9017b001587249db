#include "network/updown.hh"

#include <limits>

#include "base/logging.hh"

namespace mmr
{

namespace
{
constexpr unsigned kInf = std::numeric_limits<unsigned>::max();
} // namespace

UpDownRouting::UpDownRouting(const Topology &topo_, NodeId root_)
    : topo(topo_), root(root_), distCache(topo_.numNodes()),
      distEpoch(topo_.numNodes(), 0)
{
    mmr_assert(root < topo.numNodes(), "root out of range");
    mmr_assert(topo.connected(), "up*-down* needs a connected topology");
    syncLevels();
}

void
UpDownRouting::syncLevels() const
{
    if (levelsEpoch == topo.linkEpoch())
        return;
    levelsEpoch = topo.linkEpoch();
    // Unreachable nodes keep level kInf; isUp() still orders every
    // surviving link because both endpoints of a surviving link are
    // reachable from the root or both unreachable (tie-broken by node
    // id).
    topo.bfsDistances(root, levels, queue);
}

unsigned
UpDownRouting::level(NodeId n) const
{
    syncLevels();
    mmr_assert(n < levels.size(), "node out of range");
    return levels[n];
}

bool
UpDownRouting::isUp(NodeId from, NodeId to) const
{
    // "Up" points toward the root: strictly lower BFS level, with the
    // node id breaking ties so every link has a unique direction.
    syncLevels();
    if (levels[to] != levels[from])
        return levels[to] < levels[from];
    return to < from;
}

// mmr-lint: allow(hot-path-alloc) amortized: refills distCache[dst] in
// place once per destination and link epoch; the table and the queue
// keep their capacity.
const std::vector<unsigned> &
UpDownRouting::phaseDistances(NodeId dst) const
{
    std::vector<unsigned> &dist = distCache[dst];
    if (distEpoch[dst] == topo.linkEpoch())
        return dist;
    distEpoch[dst] = topo.linkEpoch();
    syncLevels(); // before the walk takes the shared queue
    // State (node, phase): phase 1 once a down link has been used.
    // Legal transitions: (n,0) -up-> (m,0); (n,0) -down-> (m,1);
    // (n,1) -down-> (m,1).  BFS backward from (dst,0) and (dst,1)
    // over the surviving links.
    dist.assign(2 * topo.numNodes(), kInf);
    queue.clear();
    dist[dst * 2 + 0] = 0;
    dist[dst * 2 + 1] = 0;
    queue.push_back(dst * 2 + 0);
    queue.push_back(dst * 2 + 1);

    for (std::size_t head = 0; head < queue.size(); ++head) {
        const unsigned state = queue[head];
        const NodeId m = state / 2;
        const unsigned phase = state % 2;
        const unsigned d = dist[state];
        for (const auto &p : topo.ports(m)) {
            if (!p.up)
                continue;
            const NodeId pred = p.neighbor;
            if (phase == 0) {
                // Predecessor used an up link pred -> m in phase 0.
                if (isUp(pred, m)) {
                    const unsigned s = pred * 2 + 0;
                    if (dist[s] == kInf) {
                        dist[s] = d + 1;
                        queue.push_back(s);
                    }
                }
            } else {
                // Predecessor used a down link pred -> m, landing in
                // phase 1 from either phase.
                if (!isUp(pred, m)) {
                    for (unsigned pp = 0; pp < 2; ++pp) {
                        const unsigned s = pred * 2 + pp;
                        if (dist[s] == kInf) {
                            dist[s] = d + 1;
                            queue.push_back(s);
                        }
                    }
                }
            }
        }
    }
    return dist;
}

unsigned
UpDownRouting::nextHops(NodeId at, NodeId dst, bool down_phase, Rng &rng,
                        std::vector<PortId> &ports) const
{
    const std::vector<unsigned> &dist = phaseDistances(dst);
    // Distance to dst left after the hop over p; kInf when the hop is
    // illegal (dead link, or up after down) or leads nowhere.
    const auto after = [&](const Topology::PortInfo &p) {
        if (!p.up)
            return kInf;
        const bool up = isUp(at, p.neighbor);
        if (down_phase && up)
            return kInf;
        return dist[p.neighbor * 2 + (up ? 0u : 1u)];
    };

    unsigned best = kInf;
    std::uint64_t ties = 0;
    for (const auto &p : topo.ports(at)) {
        const unsigned d = after(p);
        if (d < best) {
            best = d;
            ties = 0;
        }
        if (d != kInf && d == best)
            ++ties;
    }
    if (ties == 0)
        return 0;
    // The pick goes first; every other legal hop follows in port order.
    const std::uint64_t pick = rng.below(ties); // rank among the best
    std::uint64_t rank = 0;
    unsigned n = 1;
    for (const auto &p : topo.ports(at)) {
        const unsigned d = after(p);
        if (d == kInf)
            continue;
        if (d == best && rank++ == pick)
            ports[0] = p.localPort;
        else
            ports[n++] = p.localPort;
    }
    return n;
}

bool
UpDownRouting::reachable(NodeId at, NodeId dst, bool down_phase) const
{
    if (at == dst)
        return true;
    return phaseDistances(dst)[at * 2 + (down_phase ? 1 : 0)] != kInf;
}

} // namespace mmr
