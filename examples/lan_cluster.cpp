/**
 * @file
 * Irregular LAN / cluster scenario (§1, §3.5): an irregular
 * switch-based network of the kind the MMR targets.  Connections are
 * established with EPB backtracking probes; best-effort packets are
 * routed adaptively with up*-down*.  The example prints the topology,
 * the routing structure, the probe work EPB performed, and end-to-end
 * statistics.
 *
 * Run:  ./lan_cluster [--nodes=12] [--extra=5] [--streams=20]
 */

#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <vector>

#include "base/cli.hh"
#include "base/table.hh"
#include "network/interface.hh"
#include "network/network.hh"
#include "sim/kernel.hh"

int
main(int argc, char **argv)
{
    using namespace mmr;
    try {
        Cli cli;
        cli.flag("nodes", "12", "number of switches in the LAN");
        cli.flag("extra", "5", "cross links beyond the spanning tree");
        cli.flag("degree", "4", "max switch degree");
        cli.flag("streams", "20", "CBR connections to establish");
        cli.flag("cycles", "30000", "simulated flit cycles");
        cli.flag("seed", "3", "random seed");
        if (!cli.parse(argc, argv))
            return 0;

        const auto n = cli.count<unsigned>("nodes");
        const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
        Rng rng(seed);
        const Topology topo = Topology::irregular(
            n, cli.count<unsigned>("extra"), cli.count<unsigned>("degree"),
            rng);

        std::printf("irregular LAN: %u switches, %u links, max degree "
                    "%u\n", topo.numNodes(), topo.numLinks(),
                    topo.maxDegree());

        NetworkConfig ncfg;
        ncfg.router.vcsPerPort = 64;
        ncfg.router.candidates = 8;
        ncfg.seed = seed;
        Network net(topo, ncfg);
        Kernel kernel;
        kernel.add(&net);

        // Show the up*-down* structure the best-effort routing uses.
        std::printf("up*-down* levels:");
        for (NodeId i = 0; i < topo.numNodes(); ++i)
            std::printf(" %u:%u", i, net.updown().level(i));
        std::printf("\n\n");

        // Establish random CBR streams with EPB; compare the probe
        // work against the greedy baseline on the same demand.
        const auto streams = cli.count<unsigned>("streams");
        unsigned accepted = 0, backtracks = 0, forwards = 0;
        std::vector<std::unique_ptr<NetworkInterface>> hosts;
        for (NodeId i = 0; i < topo.numNodes(); ++i)
            hosts.push_back(
                std::make_unique<NetworkInterface>(net, i, seed + i));

        std::vector<Network::Handle> conns;
        for (unsigned s = 0; s < streams; ++s) {
            const NodeId src = static_cast<NodeId>(rng.below(n));
            NodeId dst;
            do {
                dst = static_cast<NodeId>(rng.below(n));
            } while (dst == src);
            // All demo streams run at 20 Mb/s: one flit per 62 cycles,
            // matching the injection loop below so the per-round
            // reservation is neither exceeded nor wasted.
            const auto o = net.openCbr(src, dst, 20 * kMbps);
            if (o.accepted) {
                ++accepted;
                forwards += o.forwardSteps;
                backtracks += o.backtrackSteps;
                conns.push_back(o.handle);
            }
        }
        std::printf("EPB established %u/%u streams (probe steps: %u "
                    "forward, %u backtrack)\n\n", accepted, streams,
                    forwards, backtracks);

        // Drive data: one flit per connection every 40 cycles plus a
        // light best-effort background from every host.
        for (NodeId i = 0; i < topo.numNodes(); ++i)
            hosts[i]->addBestEffortFlow((i + 1) % n, 2 * kMbps);

        const auto horizon = cli.count<Cycle>("cycles");
        net.endToEnd().startMeasurement(horizon / 10);
        std::vector<std::uint32_t> seq(conns.size(), 0);
        for (Cycle t = 0; t < horizon; ++t) {
            if (t % 62 == 0) {
                for (std::size_t k = 0; k < conns.size(); ++k) {
                    Flit f;
                    f.seq = seq[k]++;
                    f.createTime = kernel.now();
                    net.inject(conns[k], f, kernel.now());
                }
            }
            for (auto &h : hosts)
                h->tick(kernel.now());
            kernel.step();
        }

        Table t({"metric", "value"});
        t.addRow({"stream flits delivered",
                  std::to_string(net.flitsDelivered() -
                                 net.datagramsDelivered())});
        t.addRow({"datagrams delivered",
                  std::to_string(net.datagramsDelivered()) + "/" +
                      std::to_string(net.datagramsSent())});
        t.addRow({"mean end-to-end delay (cycles)",
                  Table::num(net.endToEnd().meanDelayCycles(), 2)});
        t.addRow({"mean end-to-end jitter (cycles)",
                  Table::num(net.endToEnd().meanJitterCycles(), 2)});
        t.addRow({"datagram drops", std::to_string(net.datagramDrops())});
        t.print(std::cout);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
