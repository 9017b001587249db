#include "network/topology.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"

namespace mmr
{

Topology::Topology(unsigned num_nodes) : adj(num_nodes)
{
    mmr_assert(num_nodes > 0, "topology needs at least one node");
}

void
Topology::addLink(NodeId a, NodeId b)
{
    mmr_assert(a < adj.size() && b < adj.size(), "link endpoint (", a,
               ",", b, ") out of range");
    if (a == b)
        mmr_fatal("self-loop at node ", a);
    if (hasLink(a, b))
        mmr_fatal("duplicate link between ", a, " and ", b);

    const auto pa = static_cast<PortId>(adj[a].size());
    const auto pb = static_cast<PortId>(adj[b].size());
    adj[a].push_back(PortInfo{b, pa, pb});
    adj[b].push_back(PortInfo{a, pb, pa});
    ++links;
}

unsigned
Topology::degree(NodeId n) const
{
    mmr_assert(n < adj.size(), "node out of range");
    return static_cast<unsigned>(adj[n].size());
}

unsigned
Topology::maxDegree() const
{
    unsigned d = 0;
    for (const auto &ports_ : adj)
        d = std::max(d, static_cast<unsigned>(ports_.size()));
    return d;
}

const std::vector<Topology::PortInfo> &
Topology::ports(NodeId n) const
{
    mmr_assert(n < adj.size(), "node out of range");
    return adj[n];
}

PortId
Topology::portTowards(NodeId from, NodeId to) const
{
    for (const PortInfo &p : ports(from))
        if (p.neighbor == to)
            return p.localPort;
    return kInvalidPort;
}

NodeId
Topology::neighborAt(NodeId n, PortId port) const
{
    const auto &ps = ports(n);
    mmr_assert(port < ps.size(), "port ", port, " out of range at node ",
               n);
    return ps[port].neighbor;
}

bool
Topology::hasLink(NodeId a, NodeId b) const
{
    return portTowards(a, b) != kInvalidPort;
}

bool
Topology::linkUp(NodeId a, NodeId b) const
{
    const PortId port = portTowards(a, b);
    return port != kInvalidPort && adj[a][port].up;
}

void
Topology::setLinkUp(NodeId a, NodeId b, bool up)
{
    const PortId port = portTowards(a, b);
    mmr_assert(port != kInvalidPort, "no link between ", a, " and ", b);
    PortInfo &here = adj[a][port];
    here.up = up;
    adj[b][here.remotePort].up = up;
    ++epoch;
}

std::vector<unsigned>
Topology::bfsDistances(NodeId from) const
{
    std::vector<unsigned> dist;
    std::vector<NodeId> queue;
    bfsDistances(from, dist, queue);
    return dist;
}

// mmr-lint: allow(hot-path-alloc) amortized: reached from hot paths
// only through the routing caches' refills (up*-down* levels, probe
// distances), once per link epoch, into buffers that keep their
// capacity.
void
Topology::bfsDistances(NodeId from, std::vector<unsigned> &dist,
                       std::vector<NodeId> &queue) const
{
    constexpr unsigned kInf = std::numeric_limits<unsigned>::max();
    dist.assign(adj.size(), kInf);
    queue.clear();
    dist[from] = 0;
    queue.push_back(from);
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const NodeId n = queue[head];
        for (const PortInfo &p : adj[n]) {
            if (p.up && dist[p.neighbor] == kInf) {
                dist[p.neighbor] = dist[n] + 1;
                queue.push_back(p.neighbor);
            }
        }
    }
}

unsigned
Topology::distance(NodeId a, NodeId b) const
{
    return bfsDistances(a)[b];
}

bool
Topology::connected() const
{
    const auto dist = bfsDistances(0);
    return std::none_of(dist.begin(), dist.end(), [](unsigned d) {
        return d == std::numeric_limits<unsigned>::max();
    });
}

Topology
Topology::mesh2d(unsigned width, unsigned height)
{
    mmr_assert(width > 0 && height > 0, "degenerate mesh");
    Topology t(width * height);
    auto id = [width](unsigned x, unsigned y) { return y * width + x; };
    for (unsigned y = 0; y < height; ++y) {
        for (unsigned x = 0; x < width; ++x) {
            if (x + 1 < width)
                t.addLink(id(x, y), id(x + 1, y));
            if (y + 1 < height)
                t.addLink(id(x, y), id(x, y + 1));
        }
    }
    return t;
}

Topology
Topology::torus2d(unsigned width, unsigned height)
{
    mmr_assert(width > 2 && height > 2,
               "torus needs width/height > 2 to avoid duplicate links");
    Topology t(width * height);
    auto id = [width](unsigned x, unsigned y) { return y * width + x; };
    for (unsigned y = 0; y < height; ++y) {
        for (unsigned x = 0; x < width; ++x) {
            t.addLink(id(x, y), id((x + 1) % width, y));
            t.addLink(id(x, y), id(x, (y + 1) % height));
        }
    }
    return t;
}

Topology
Topology::ring(unsigned n)
{
    mmr_assert(n >= 3, "ring needs at least 3 nodes");
    Topology t(n);
    for (unsigned i = 0; i < n; ++i)
        t.addLink(i, (i + 1) % n);
    return t;
}

Topology
Topology::star(unsigned leaves)
{
    mmr_assert(leaves >= 1, "star needs at least one leaf");
    Topology t(leaves + 1);
    for (unsigned i = 1; i <= leaves; ++i)
        t.addLink(0, i);
    return t;
}

Topology
Topology::multistage(unsigned radix, unsigned stages)
{
    mmr_assert(radix >= 2, "MIN radix must be at least 2");
    mmr_assert(stages >= 2, "MIN needs at least 2 stages");

    // Switches per stage: radix^(stages-1), with overflow guard.
    unsigned width = 1;
    for (unsigned i = 1; i < stages; ++i) {
        mmr_assert(width <= (1u << 24) / radix,
                   "MIN size overflows: radix ", radix, " stages ",
                   stages);
        width *= radix;
    }

    Topology t(stages * width);
    auto id = [width](unsigned stage, unsigned pos) {
        return stage * width + pos;
    };

    // Butterfly wiring: between stages i and i+1, vary base-radix
    // digit (stages-2-i) of the switch position through all radix
    // values.  Varying the most significant digit first gives the
    // classic butterfly picture with stage 0 on top.
    for (unsigned i = 0; i + 1 < stages; ++i) {
        unsigned digit_weight = 1;
        for (unsigned d = 0; d < stages - 2 - i; ++d)
            digit_weight *= radix;
        for (unsigned j = 0; j < width; ++j) {
            const unsigned digit = (j / digit_weight) % radix;
            const unsigned base = j - digit * digit_weight;
            for (unsigned v = 0; v < radix; ++v)
                t.addLink(id(i, j), id(i + 1, base + v * digit_weight));
        }
    }
    return t;
}

Topology
Topology::fatTree(unsigned radix)
{
    mmr_assert(radix >= 4 && radix % 2 == 0,
               "fat-tree radix must be even and at least 4");
    const unsigned half = radix / 2;
    const unsigned cores = half * half;
    const unsigned per_pod = radix; // half aggregation + half edge
    Topology t(cores + radix * per_pod);

    // Ids: cores [0, cores), then pod p's aggregation switches
    // followed by its edge switches.
    auto agg = [&](unsigned pod, unsigned j) {
        return cores + pod * per_pod + j;
    };
    auto edge = [&](unsigned pod, unsigned j) {
        return cores + pod * per_pod + half + j;
    };

    for (unsigned p = 0; p < radix; ++p) {
        for (unsigned j = 0; j < half; ++j) {
            // Aggregation switch j uplinks to its core group.
            for (unsigned c = 0; c < half; ++c)
                t.addLink(agg(p, j), j * half + c);
            // Every edge switch links to every aggregation switch.
            for (unsigned e = 0; e < half; ++e)
                t.addLink(agg(p, j), edge(p, e));
        }
    }
    return t;
}

Topology
Topology::leafSpine(unsigned spines, unsigned leaves)
{
    mmr_assert(spines >= 1 && leaves >= 1,
               "leaf-spine needs at least one spine and one leaf");
    Topology t(spines + leaves);
    for (unsigned l = 0; l < leaves; ++l)
        for (unsigned s = 0; s < spines; ++s)
            t.addLink(spines + l, s);
    return t;
}

Topology
Topology::irregular(unsigned n, unsigned extra_links, unsigned max_degree,
                    Rng &rng)
{
    mmr_assert(n >= 2, "irregular topology needs at least 2 nodes");
    mmr_assert(max_degree >= 2, "degree bound must be at least 2");
    Topology t(n);

    // Random spanning tree: attach each node to a random earlier one
    // with spare degree.
    std::vector<NodeId> order(n);
    for (unsigned i = 0; i < n; ++i)
        order[i] = i;
    rng.shuffle(order);

    for (unsigned i = 1; i < n; ++i) {
        // Pick an already-attached node with room.
        for (unsigned attempt = 0;; ++attempt) {
            const NodeId cand = order[rng.below(i)];
            if (t.degree(cand) < max_degree) {
                t.addLink(order[i], cand);
                break;
            }
            if (attempt > 8 * n) {
                // Degree bound too tight for a tree; fall back to the
                // lowest-degree attached node.
                NodeId best = order[0];
                for (unsigned j = 0; j < i; ++j)
                    if (t.degree(order[j]) < t.degree(best))
                        best = order[j];
                t.addLink(order[i], best);
                break;
            }
        }
    }

    // Extra cross links subject to the degree bound.
    unsigned added = 0;
    unsigned attempts = 0;
    while (added < extra_links && attempts < 64 * (extra_links + 1)) {
        ++attempts;
        const NodeId a = static_cast<NodeId>(rng.below(n));
        const NodeId b = static_cast<NodeId>(rng.below(n));
        if (a == b || t.hasLink(a, b) || t.degree(a) >= max_degree ||
            t.degree(b) >= max_degree)
            continue;
        t.addLink(a, b);
        ++added;
    }
    return t;
}

} // namespace mmr
