/**
 * @file
 * Fault-tolerance extension — the MMR's lineage (EPB comes from the
 * fault-tolerant routing protocols of Gaughan & Yalamanchili [17];
 * the Reliable Router and Ariadne references point the same way).
 * This bench kills links in a live mesh while streams and datagrams
 * flow, and measures: flits lost on the wire, connections failed and
 * re-established (a zero-time RecoveryManager re-runs EPB inside the
 * failure), datagram continuity over the recomputed up*-down* routes,
 * and end-to-end delay before/after.
 */

#include <memory>

#include "bench_common.hh"
#include "fault/recovery.hh"
#include "network/interface.hh"
#include "network/network.hh"
#include "sim/kernel.hh"

int
main(int argc, char **argv)
{
    using namespace mmr;
    using namespace mmr::bench;
    return guardedMain([&] {
        Cli cli;
        cli.flag("seed", "21", "random seed");
        cli.flag("phase", "20000", "cycles between failure events");
        if (!cli.parse(argc, argv))
            return 0;
        const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
        const auto phase = static_cast<Cycle>(cli.integer("phase"));

        std::printf("Fault tolerance on a 4x4 mesh: streams + "
                    "datagrams across repeated link failures\n");

        NetworkConfig ncfg;
        ncfg.router.vcsPerPort = 32;
        ncfg.router.candidates = 8;
        ncfg.seed = seed;
        Network net(Topology::mesh2d(4, 4), ncfg);
        Kernel kernel;
        kernel.add(&net);
        RecoveryConfig rcfg;
        rcfg.zeroTime = true; // no per-cycle work: not on the kernel
        RecoveryManager recovery(net, rcfg, seed);

        std::vector<std::unique_ptr<NetworkInterface>> hosts;
        for (NodeId n = 0; n < 16; ++n) {
            hosts.push_back(
                std::make_unique<NetworkInterface>(net, n, seed + n));
            hosts.back()->attachRecovery(&recovery);
            hosts.back()->openCbrStream((n + 5) % 16, 10 * kMbps);
            hosts.back()->addBestEffortFlow((n + 3) % 16, 2 * kMbps);
        }

        // Four scattered link failures that leave the mesh connected
        // (killing all four column-1/2 links would partition it).
        const std::vector<std::pair<NodeId, NodeId>> failures{
            {5, 6}, {9, 13}, {2, 3}, {12, 13}};
        net.endToEnd().startMeasurement(phase / 4);

        Table t({"event", "cycle", "streams_alive", "lost_flits",
                 "conns_failed", "reestablished", "datagrams_ok_pct"});
        auto snapshot = [&](const std::string &event) {
            unsigned alive = 0, reest = 0;
            for (auto &h : hosts) {
                alive += h->establishedStreams();
                reest += h->reestablishedStreams();
            }
            const double dg_pct =
                net.datagramsSent()
                    ? 100.0 *
                          static_cast<double>(net.datagramsDelivered()) /
                          static_cast<double>(net.datagramsSent())
                    : 100.0;
            t.addRow({event, std::to_string(kernel.now()),
                      std::to_string(alive),
                      std::to_string(net.flitsLostToFailures()),
                      std::to_string(net.connectionsFailed()),
                      std::to_string(reest), Table::num(dg_pct, 2)});
        };

        auto run_phase = [&] {
            for (Cycle c = 0; c < phase; ++c) {
                for (auto &h : hosts)
                    h->tick(kernel.now());
                kernel.step();
            }
        };

        run_phase();
        snapshot("baseline");
        for (const auto &[a, b] : failures) {
            net.failLink(a, b);
            run_phase();
            snapshot("failed " + std::to_string(a) + "-" +
                     std::to_string(b));
        }
        // Let the in-flight tail drain before the final accounting.
        for (Cycle c = 0; c < 2000; ++c) {
            for (auto &h : hosts)
                h->tick(kernel.now());
            kernel.step();
        }
        snapshot("final");
        t.print(std::cout);
        t.printCsv(std::cout, "fault_tolerance");

        int failures_cnt = 0;
        unsigned alive = 0;
        for (auto &h : hosts)
            alive += h->establishedStreams();
        // Every stream must be running at the end (each failure leaves
        // the 4x4 mesh connected, so re-establishment always succeeds).
        if (alive != 16)
            ++failures_cnt;
        if (net.connectionsFailed() == 0)
            ++failures_cnt; // the failures must actually have bitten
        if (net.datagramsDelivered() + 64 < net.datagramsSent())
            ++failures_cnt; // datagram loss beyond the in-flight tail
        std::printf("shape check (all streams re-established; datagram "
                    "continuity): %s\n",
                    failures_cnt == 0 ? "PASS" : "FAIL");
        return failures_cnt == 0 ? 0 : 2;
    });
}
