/**
 * @file
 * Dynamic bandwidth management (§4.3): "using control words along a
 * connection we can dynamically vary the bandwidth requirements of a
 * connection ... initiated by the source interface in response to
 * external (CPU initiated) events or in response to actual
 * performance experienced on a connection."
 *
 * An adaptive video source starts at a low rate, observes its own
 * end-to-end latency, renegotiates upward while the network has head
 * room, and is throttled back by admission control when a competing
 * connection claims the remaining bandwidth.  Also demonstrates
 * dynamic VBR priority changes and the Myrinet-style control-word
 * encoding used on the wire.
 *
 * Run:  ./dynamic_bandwidth
 */

#include <cstdio>
#include <exception>
#include <iostream>

#include "base/cli.hh"
#include "base/table.hh"
#include "network/network.hh"
#include "router/flow_control.hh"
#include "sim/kernel.hh"

int
main(int argc, char **argv)
{
    using namespace mmr;
    try {
        Cli cli;
        cli.flag("seed", "9", "random seed");
        if (!cli.parse(argc, argv))
            return 0;

        const Topology topo = Topology::ring(4);
        NetworkConfig ncfg;
        ncfg.router.vcsPerPort = 32;
        ncfg.seed = static_cast<std::uint64_t>(cli.integer("seed"));
        Network net(topo, ncfg);
        Kernel kernel;
        kernel.add(&net);

        // The adaptive connection: starts at 100 Mb/s.
        const auto video = net.openCbr(0, 2, 100 * kMbps);
        if (!video.accepted) {
            std::fprintf(stderr, "setup failed\n");
            return 1;
        }
        std::printf("adaptive stream %u established (path length %u)\n",
                    video.id, video.pathLength);

        Table t({"event", "requested_mbps", "outcome",
                 "alloc_cycles@hop0"});
        auto alloc_now = [&] {
            const Network::PathHop first =
                net.connectionPath(video.handle).front();
            return net.routerAt(first.node).segment(first.in).allocCycles;
        };

        // Step upward while there is head room — the interface would
        // send SetBandwidth control words; we show the actual 64-bit
        // encodings that would ride the link.
        for (double mbps : {200.0, 400.0, 800.0}) {
            ControlWord w;
            w.op = ControlOp::SetBandwidth;
            w.conn = video.id;
            w.arg = mbps;
            const bool ok =
                net.renegotiateBandwidth(video.handle, mbps * kMbps);
            std::printf("control word 0x%016llx (SetBandwidth %.0f "
                        "Mb/s) -> %s\n",
                        static_cast<unsigned long long>(w.encode()),
                        mbps, ok ? "granted" : "refused");
            t.addRow({"scale up", Table::num(mbps, 0),
                      ok ? "granted" : "refused",
                      std::to_string(alloc_now())});
        }

        // A competitor appears on the video's own path and takes a
        // slice; scaling further must now fail, and the source backs
        // off.
        const NodeId mid = net.connectionPath(video.handle)[1].node;
        const auto rival = net.openCbr(mid, 2, 300 * kMbps);
        std::printf("rival stream (300 Mb/s from node %u, sharing the "
                    "video's second hop) %s\n", mid,
                    rival.accepted ? "admitted" : "refused");

        const bool up_again =
            net.renegotiateBandwidth(video.handle, 1.1 * kGbps);
        t.addRow({"scale up vs rival", "1100",
                  up_again ? "granted" : "refused",
                  std::to_string(alloc_now())});

        const bool back_off =
            net.renegotiateBandwidth(video.handle, 300 * kMbps);
        t.addRow({"back off", "300", back_off ? "granted" : "refused",
                  std::to_string(alloc_now())});

        t.print(std::cout);

        // Drive some traffic at the final rate to show the stream is
        // healthy after all the renegotiation.
        net.endToEnd().startMeasurement(0);
        std::uint32_t seq = 0;
        for (Cycle t2 = 0; t2 < 5000; ++t2) {
            if (t2 % 5 == 0) { // ~250 Mb/s worth of flits
                Flit f;
                f.seq = seq++;
                f.createTime = kernel.now();
                net.inject(video.handle, f, kernel.now());
            }
            kernel.step();
        }
        const ConnectionRecorder *rec =
            net.endToEnd().connection(video.id);
        std::printf("after renegotiation: %llu flits delivered, mean "
                    "e2e delay %.1f cycles, jitter %.2f cycles\n",
                    static_cast<unsigned long long>(
                        rec ? rec->delay().count() : 0),
                    rec ? rec->delay().mean() : 0.0,
                    rec ? rec->jitter().mean() : 0.0);

        // Dynamic VBR priority via control words.
        const auto vbr = net.openVbr(3, 1, 5 * kMbps, 20 * kMbps, 0);
        if (vbr.accepted) {
            ControlWord w;
            w.op = ControlOp::SetPriority;
            w.conn = vbr.id;
            w.arg = 7.0;
            net.setConnectionPriority(vbr.handle, 7);
            std::printf("VBR priority raised to 7 via control word "
                        "0x%016llx\n",
                        static_cast<unsigned long long>(w.encode()));
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
