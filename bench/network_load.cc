/**
 * @file
 * Network-scale extension of the §5 study: the single-router
 * experiment shows the scheduler's behavior in isolation; here whole
 * MMR networks (a 3x3 mesh and a 12-switch irregular LAN) carry CBR
 * load end to end, with per-hop link/switch scheduling, credit flow
 * control between routers, and EPB-established paths.  Reported:
 * end-to-end delay and jitter versus offered load for the biased and
 * fixed priority schemes.
 */

#include <memory>

#include "bench_common.hh"
#include "network/interface.hh"
#include "network/network.hh"
#include "sim/kernel.hh"

namespace
{

using namespace mmr;

struct NetPoint
{
    double load = 0.0;   ///< achieved fraction of bisection-ish demand
    double delay = 0.0;  ///< mean end-to-end delay (cycles)
    double jitter = 0.0; ///< mean end-to-end jitter (cycles)
    unsigned streams = 0;
    std::uint64_t backlog = 0;
};

NetPoint
runPoint(const Topology &topo, SchedulerKind kind, double load,
         std::uint64_t seed, Cycle warmup, Cycle measure)
{
    NetworkConfig cfg;
    cfg.router.vcsPerPort = 64;
    cfg.router.candidates = 8;
    cfg.router.scheduler = kind;
    cfg.seed = seed;
    Network net(topo, cfg);
    Kernel kernel;
    kernel.add(&net);

    Rng rng(seed * 77 + 1);
    std::vector<std::unique_ptr<NetworkInterface>> hosts;
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        hosts.push_back(
            std::make_unique<NetworkInterface>(net, n, seed + n));

    // Offered load is defined against the host links: each host
    // injects CBR streams to random destinations until its share of
    // the NI link reaches the target.
    const double link = cfg.router.linkRateBps;
    NetPoint point;
    double admitted = 0.0;
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        double local = 0.0;
        unsigned failures = 0;
        while (local < load * link && failures < 32) {
            std::vector<double> fitting;
            for (double r : paperRateLadder())
                if (local + r <= load * link * 1.02)
                    fitting.push_back(r);
            if (fitting.empty())
                break;
            const double rate = rng.pick(fitting);
            NodeId dst;
            do {
                dst = static_cast<NodeId>(rng.below(topo.numNodes()));
            } while (dst == n);
            if (hosts[n]->openCbrStream(dst, rate)) {
                local += rate;
                failures = 0;
            } else {
                ++failures;
            }
        }
        admitted += local;
        point.streams += hosts[n]->establishedStreams();
    }
    point.load = admitted / (link * topo.numNodes());

    net.endToEnd().startMeasurement(warmup);
    for (Cycle t = 0; t < warmup + measure; ++t) {
        for (auto &h : hosts)
            h->tick(kernel.now());
        kernel.step();
    }
    point.delay = net.endToEnd().meanDelayCycles();
    point.jitter = net.endToEnd().meanJitterCycles();
    for (auto &h : hosts)
        point.backlog += h->backloggedFlits();
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mmr;
    using namespace mmr::bench;
    return guardedMain([&] {
        Cli cli;
        cli.flag("measure", "40000", "measured flit cycles per point");
        cli.flag("warmup", "8000", "warm-up flit cycles per point");
        cli.flag("seed", "19", "workload seed");
        if (!cli.parse(argc, argv))
            return 0;
        const auto warmup = cli.count<Cycle>("warmup");
        const auto measure = cli.count<Cycle>("measure");
        const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));

        const std::vector<double> loads{0.2, 0.4, 0.6, 0.8};
        Rng trng(seed);
        struct NetDef
        {
            std::string name;
            Topology topo;
        };
        const std::vector<NetDef> nets{
            {"mesh3x3", Topology::mesh2d(3, 3)},
            {"irregular12", Topology::irregular(12, 6, 4, trng)},
        };

        int failures = 0;
        for (const NetDef &nd : nets) {
            std::printf("Network load sweep on %s (%u switches, %u "
                        "links)\n", nd.name.c_str(), nd.topo.numNodes(),
                        nd.topo.numLinks());
            Table t({"offered_load", "achieved", "streams",
                     "delay_biased", "jitter_biased", "delay_fixed",
                     "jitter_fixed"});
            for (double load : loads) {
                const NetPoint b =
                    runPoint(nd.topo, SchedulerKind::BiasedPriority,
                             load, seed, warmup, measure);
                const NetPoint f =
                    runPoint(nd.topo, SchedulerKind::FixedPriority,
                             load, seed, warmup, measure);
                std::fprintf(stderr, "  %s load %.1f done\n",
                             nd.name.c_str(), load);
                t.addRow({Table::num(load, 2), Table::num(b.load, 3),
                          std::to_string(b.streams),
                          Table::num(b.delay, 2),
                          Table::num(b.jitter, 3),
                          Table::num(f.delay, 2),
                          Table::num(f.jitter, 3)});
                // End-to-end, the biased scheme keeps its edge.
                if (load >= 0.6 && b.delay > f.delay * 1.2)
                    ++failures;
            }
            t.print(std::cout);
            t.printCsv(std::cout, "network_load_" + nd.name);
        }
        std::printf("shape check (biased delay <= ~fixed end-to-end at "
                    "high load): %s\n",
                    failures == 0 ? "PASS" : "FAIL");
        return failures == 0 ? 0 : 2;
    });
}
