/**
 * @file
 * §3.5/§4.2 extension A6 — connection establishment at network scale:
 * EPB (exhaustive profitable backtracking) against the greedy
 * single-path baseline on an irregular cluster/LAN topology.
 * Reports acceptance ratio, probe work and estimated setup latency as
 * connection demand grows, then verifies data flows end-to-end on the
 * established connections.
 */

#include <memory>

#include "bench_common.hh"
#include "network/interface.hh"
#include "network/network.hh"
#include "sim/kernel.hh"

namespace
{

using namespace mmr;

struct LoadPoint
{
    unsigned offered = 0;
    unsigned accepted = 0;
    double acceptance = 0.0;
    double meanForward = 0.0;
    double meanBacktrack = 0.0;
    double meanSetupCycles = 0.0;
};

std::vector<LoadPoint>
demandSweep(SetupPolicy policy, unsigned total_demand,
            unsigned batch, std::uint64_t seed)
{
    Rng rng(seed);
    const Topology topo = Topology::irregular(16, 8, 4, rng);
    NetworkConfig cfg;
    cfg.router.vcsPerPort = 64;
    cfg.seed = seed;
    Network net(topo, cfg);

    std::vector<LoadPoint> points;
    LoadPoint cur;
    double fwd = 0, bwd = 0, setup = 0;
    for (unsigned i = 0; i < total_demand; ++i) {
        const NodeId src = static_cast<NodeId>(rng.below(16));
        NodeId dst;
        do {
            dst = static_cast<NodeId>(rng.below(16));
        } while (dst == src);
        const double rate = rng.pick(paperRateLadder());
        const auto o = net.openCbr(src, dst, rate, policy);
        ++cur.offered;
        if (o.accepted) {
            ++cur.accepted;
            fwd += o.forwardSteps;
            bwd += o.backtrackSteps;
            setup += static_cast<double>(o.setupCycles);
        }
        if (cur.offered % batch == 0) {
            cur.acceptance =
                static_cast<double>(cur.accepted) / cur.offered;
            cur.meanForward = cur.accepted ? fwd / cur.accepted : 0.0;
            cur.meanBacktrack = cur.accepted ? bwd / cur.accepted : 0.0;
            cur.meanSetupCycles =
                cur.accepted ? setup / cur.accepted : 0.0;
            points.push_back(cur);
        }
    }
    return points;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mmr;
    using namespace mmr::bench;
    return guardedMain([&] {
        Cli cli;
        cli.flag("demand", "600", "total connection requests");
        cli.flag("batch", "100", "report granularity");
        cli.flag("seed", "11", "topology/workload seed");
        if (!cli.parse(argc, argv))
            return 0;
        const auto demand = static_cast<unsigned>(cli.integer("demand"));
        const auto batch = static_cast<unsigned>(cli.integer("batch"));
        const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));

        std::printf("Claim A6: EPB vs greedy connection establishment, "
                    "16-node irregular LAN\n");

        const auto epb = demandSweep(SetupPolicy::Epb, demand, batch,
                                     seed);
        const auto greedy = demandSweep(SetupPolicy::Greedy, demand,
                                        batch, seed);

        Table t({"offered_conns", "accept_epb", "accept_greedy",
                 "probe_fwd_epb", "probe_back_epb",
                 "setup_cycles_epb"});
        for (std::size_t i = 0; i < epb.size(); ++i) {
            t.addRow({std::to_string(epb[i].offered),
                      Table::num(epb[i].acceptance, 3),
                      Table::num(greedy[i].acceptance, 3),
                      Table::num(epb[i].meanForward, 2),
                      Table::num(epb[i].meanBacktrack, 2),
                      Table::num(epb[i].meanSetupCycles, 1)});
        }
        t.print(std::cout);
        t.printCsv(std::cout, "epb_vs_greedy");

        int failures = 0;
        // EPB never accepts fewer connections than greedy under the
        // same demand sequence.
        for (std::size_t i = 0; i < epb.size(); ++i)
            if (epb[i].accepted + 1 < greedy[i].accepted)
                ++failures;
        // And under heavy demand, backtracking pays off visibly.
        if (epb.back().accepted < greedy.back().accepted)
            ++failures;
        std::printf("shape check (EPB acceptance >= greedy): %s\n",
                    failures == 0 ? "PASS" : "FAIL");

        // ---- end-to-end data over the established network ----------
        std::printf("\nData transmission across an irregular LAN with "
                    "background best-effort:\n");
        Rng rng(seed);
        const Topology topo = Topology::irregular(16, 8, 4, rng);
        NetworkConfig ncfg;
        ncfg.router.vcsPerPort = 64;
        ncfg.seed = seed;
        Network net(topo, ncfg);
        Kernel kernel;
        kernel.add(&net);

        std::vector<std::unique_ptr<NetworkInterface>> hosts;
        for (NodeId n = 0; n < 16; ++n) {
            hosts.push_back(
                std::make_unique<NetworkInterface>(net, n, seed + n));
            const NodeId dst = static_cast<NodeId>((n + 5) % 16);
            hosts.back()->openCbrStream(dst, 10 * kMbps);
            hosts.back()->addBestEffortFlow((n + 3) % 16, 2 * kMbps);
        }
        net.endToEnd().startMeasurement(2000);
        for (Cycle t2 = 0; t2 < 40000; ++t2) {
            for (auto &h : hosts)
                h->tick(kernel.now());
            kernel.step();
        }
        std::printf("  delivered stream flits: %llu, datagrams: "
                    "%llu/%llu, mean e2e delay %.1f cycles\n",
                    static_cast<unsigned long long>(
                        net.flitsDelivered() - net.datagramsDelivered()),
                    static_cast<unsigned long long>(
                        net.datagramsDelivered()),
                    static_cast<unsigned long long>(net.datagramsSent()),
                    net.endToEnd().meanDelayCycles());
        if (net.flitsDelivered() == 0 || net.datagramDrops() != 0)
            ++failures;
        std::printf("network data check: %s\n",
                    failures == 0 ? "PASS" : "FAIL");
        return failures == 0 ? 0 : 2;
    });
}
