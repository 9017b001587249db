/**
 * @file
 * Timed connection establishment — measured setup latency of the
 * distributed probe/ack protocol (§3.4/§3.5) as network occupancy
 * grows, EPB vs greedy.  Unlike the network_epb bench (which uses the
 * instantaneous reservation walk and a latency *model*), every point
 * here is produced by probes travelling hop by hop in simulated time,
 * contending with each other for VCs and bandwidth.
 */

#include <memory>

#include "bench_common.hh"
#include "network/network.hh"
#include "sim/kernel.hh"

namespace
{

using namespace mmr;

struct Sample
{
    unsigned offered = 0;
    unsigned accepted = 0;
    StreamStat setupCycles;
    StreamStat backtracks;
};

std::vector<Sample>
timedSweep(SetupPolicy policy, unsigned total, unsigned batch,
           std::uint64_t seed)
{
    Rng rng(seed);
    const Topology topo = Topology::irregular(16, 8, 4, rng);
    NetworkConfig cfg;
    cfg.router.vcsPerPort = 64;
    cfg.seed = seed;
    Network net(topo, cfg);
    Kernel kernel;
    kernel.add(&net);

    std::vector<Sample> samples;
    Sample cur;
    for (unsigned i = 0; i < total; ++i) {
        const NodeId src = static_cast<NodeId>(rng.below(16));
        NodeId dst;
        do {
            dst = static_cast<NodeId>(rng.below(16));
        } while (dst == src);
        const double rate = rng.pick(paperRateLadder());
        const auto token =
            net.openCbrTimed(src, dst, rate, kernel.now(), policy);
        // Drive the clock until the probe resolves.
        Network::SetupOutcome r;
        bool done = false;
        for (Cycle c = 0; c < 50000 && !done; ++c) {
            kernel.step();
            done = net.takeTimedResult(token, r);
        }
        mmr_assert(done, "probe never completed");
        ++cur.offered;
        if (r.accepted) {
            ++cur.accepted;
            cur.setupCycles.add(static_cast<double>(r.setupCycles));
            cur.backtracks.add(static_cast<double>(r.backtrackSteps));
        }
        if (cur.offered % batch == 0) {
            samples.push_back(cur);
            cur.setupCycles.reset();
            cur.backtracks.reset();
        }
    }
    return samples;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mmr;
    using namespace mmr::bench;
    return guardedMain([&] {
        Cli cli;
        cli.flag("demand", "500", "total connection requests");
        cli.flag("batch", "100", "report granularity");
        cli.flag("seed", "11", "topology/workload seed");
        if (!cli.parse(argc, argv))
            return 0;
        const auto demand = cli.count<unsigned>("demand");
        const auto batch = cli.count<unsigned>("batch");
        const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));

        std::printf("Measured setup latency of the probe/ack protocol, "
                    "16-node irregular LAN (hop cost 2 cycles)\n");

        const auto epb =
            timedSweep(SetupPolicy::Epb, demand, batch, seed);
        const auto greedy =
            timedSweep(SetupPolicy::Greedy, demand, batch, seed);

        Table t({"offered", "accept_epb", "accept_greedy",
                 "setup_mean_epb", "setup_max_epb", "backtracks_mean",
                 "setup_mean_greedy"});
        for (std::size_t i = 0; i < epb.size(); ++i) {
            t.addRow({std::to_string(epb[i].offered),
                      Table::num(static_cast<double>(epb[i].accepted) /
                                     epb[i].offered, 3),
                      Table::num(static_cast<double>(
                                     greedy[i].accepted) /
                                     greedy[i].offered, 3),
                      Table::num(epb[i].setupCycles.mean(), 1),
                      Table::num(epb[i].setupCycles.max(), 0),
                      Table::num(epb[i].backtracks.mean(), 3),
                      Table::num(greedy[i].setupCycles.mean(), 1)});
        }
        t.print(std::cout);
        t.printCsv(std::cout, "timed_setup_latency");

        int failures = 0;
        // Setup latency is in the tens of flit cycles — microseconds
        // at the paper's 103 ns cycle, far below a LAN connection's
        // lifetime, which is the premise of connection-oriented PCS.
        for (const auto &s : epb) {
            if (s.accepted > 0 && s.setupCycles.mean() > 500.0)
                ++failures;
        }
        // EPB never accepts less than greedy on the same demand.
        for (std::size_t i = 0; i < epb.size(); ++i)
            if (epb[i].accepted + 1 < greedy[i].accepted)
                ++failures;
        std::printf("shape check (setup in tens of cycles; EPB >= "
                    "greedy acceptance): %s\n",
                    failures == 0 ? "PASS" : "FAIL");
        return failures == 0 ? 0 : 2;
    });
}
