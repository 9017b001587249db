/**
 * @file
 * Video-on-demand server scenario (the paper's motivating workload,
 * §1-§2): a server node streams MPEG-like VBR video to many clients
 * across a small cluster network while the clients exchange
 * best-effort traffic.  Demonstrates VBR admission with permanent +
 * peak bandwidth, the concurrency factor, per-priority scheduling,
 * and QoS isolation of the streams from the datagram background.
 *
 * Run:  ./video_server [--clients=6] [--mbps=4] [--seconds=0.02]
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
        cli.flag("clients", "6", "number of video clients");
        cli.flag("mbps", "4", "mean video rate per stream (Mb/s)");
        cli.flag("peak", "3.0", "declared peak/mean ratio");
        cli.flag("seconds", "0.02", "simulated seconds");
        cli.flag("seed", "7", "random seed");
        cli.flag("trace", "",
                 "frame-size trace to replay (bits per line); empty = "
                 "synthetic GOP model");
        if (!cli.parse(argc, argv))
            return 0;

        const auto clients = cli.count<unsigned>("clients");
        const double mean_bps = cli.real("mbps") * kMbps;
        const double seconds = cli.real("seconds");

        // A 3x3 mesh cluster; the server sits in the middle.
        const Topology topo = Topology::mesh2d(3, 3);
        const NodeId server = 4;
        NetworkConfig ncfg;
        ncfg.router.vcsPerPort = 64;
        ncfg.router.candidates = 8;
        ncfg.seed = static_cast<std::uint64_t>(cli.integer("seed"));
        Network net(topo, ncfg);
        Kernel kernel;
        kernel.add(&net);

        const double cycles_per_second =
            ncfg.router.linkRateBps / ncfg.router.flitBits;
        const auto horizon =
            static_cast<Cycle>(seconds * cycles_per_second);

        std::printf("video server at node %u, %u clients, %.1f Mb/s "
                    "mean (peak x%.1f), %.0f cycles (%.0f us)\n",
                    server, clients, mean_bps / kMbps, cli.real("peak"),
                    static_cast<double>(horizon),
                    horizon * ncfg.router.flitCycleNanos() / 1000.0);

        // The server's interface opens one VBR stream per client, with
        // a priority reflecting the service class the client bought.
        NetworkInterface server_ni(net, server, ncfg.seed);
        VbrProfile prof;
        prof.meanRateBps = mean_bps;
        prof.peakToMean = cli.real("peak");
        prof.framesPerSecond = 500.0; // fast frame clock for the demo
        const std::string trace = cli.str("trace");
        unsigned established = 0;
        for (unsigned c = 0; c < clients; ++c) {
            const NodeId client = (server + 1 + c) % topo.numNodes();
            const int priority = static_cast<int>(c % 3);
            const bool ok =
                trace.empty()
                    ? server_ni.openVbrStream(client, prof, priority)
                    : server_ni.openTraceStream(
                          client, trace, prof.framesPerSecond,
                          prof.peakToMean, priority);
            if (ok)
                ++established;
        }
        if (!trace.empty())
            std::printf("replaying frame trace '%s'\n", trace.c_str());
        std::printf("established %u/%u VBR streams (admission refused "
                    "%u)\n", established, clients,
                    server_ni.refusedStreams());

        // Clients chatter with best-effort datagrams in the background.
        std::vector<std::unique_ptr<NetworkInterface>> client_nis;
        for (NodeId n = 0; n < topo.numNodes(); ++n) {
            if (n == server)
                continue;
            client_nis.push_back(std::make_unique<NetworkInterface>(
                net, n, ncfg.seed + n + 1));
            client_nis.back()->addBestEffortFlow((n + 3) % 9, 10 * kMbps);
        }

        net.endToEnd().startMeasurement(horizon / 10);
        for (Cycle t = 0; t < horizon; ++t) {
            server_ni.tick(kernel.now());
            for (auto &ni : client_nis)
                ni->tick(kernel.now());
            kernel.step();
        }

        // Report per-stream QoS.
        Table t({"stream", "flits", "mean_e2e_cycles", "p-to-p jitter",
                 "path_len"});
        const std::vector<ConnId> conns = server_ni.connections();
        for (unsigned k = 0; k < conns.size(); ++k) {
            const ConnectionRecorder *rec =
                net.endToEnd().connection(conns[k]);
            if (rec == nullptr)
                continue;
            const auto path = net.connectionPath(server_ni.handle(k));
            t.addRow({std::to_string(conns[k]),
                      std::to_string(rec->delay().count()),
                      Table::num(rec->delay().mean(), 1),
                      Table::num(rec->jitter().mean(), 2),
                      std::to_string(path.size())});
        }
        t.print(std::cout);
        std::printf("background datagrams: %llu sent, %llu delivered\n",
                    static_cast<unsigned long long>(net.datagramsSent()),
                    static_cast<unsigned long long>(
                        net.datagramsDelivered()));
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
