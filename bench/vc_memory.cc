/**
 * @file
 * §3.2 ablation A5 — virtual channel memory organization: "the number
 * of memory modules and flit size must be selected to balance memory
 * access time, link speed, and crossbar switching delay".  For a grid
 * of bank counts and flit sizes, the bench reports the sustainable
 * per-link bandwidth of the interleaved buffer memory and the minimum
 * bank count for the paper's link rates.
 */

#include <cstdio>
#include <iostream>

#include "base/cli.hh"
#include "base/table.hh"
#include "bench_common.hh"
#include "router/vc_memory.hh"

int
main(int argc, char **argv)
{
    using namespace mmr;
    using namespace mmr::bench;
    return guardedMain([&] {
        Cli cli;
        cli.flag("access_ns", "6.0", "RAM module access time");
        cli.flag("word_bits", "32", "internal datapath width");
        if (!cli.parse(argc, argv))
            return 0;
        const double access = cli.real("access_ns");
        const auto word = cli.count<unsigned>("word_bits");

        std::printf("Claim A5: VC memory bank interleaving vs "
                    "sustainable link rate (%.1f ns RAM, %u-bit "
                    "words)\n", access, word);

        Table t({"banks", "flit_128_gbps", "flit_256_gbps",
                 "flit_512_gbps", "sustains_1.24G_128b"});
        int failures = 0;
        double prev = 0.0;
        for (unsigned banks : {1u, 2u, 4u, 8u, 16u, 32u}) {
            VcMemoryModel m{banks, word, access, 1};
            const double g128 = m.sustainableRateBps(128) / kGbps;
            const double g256 = m.sustainableRateBps(256) / kGbps;
            const double g512 = m.sustainableRateBps(512) / kGbps;
            t.addRow({std::to_string(banks), Table::num(g128, 3),
                      Table::num(g256, 3), Table::num(g512, 3),
                      m.matchesLink(128, 1.24 * kGbps) ? "yes" : "no"});
            if (g128 + 1e-9 < prev)
                ++failures; // bandwidth must be monotone in banks
            prev = g128;
        }
        t.print(std::cout);
        t.printCsv(std::cout, "vc_memory_bandwidth");

        Table t2({"link_gbps", "flit_bits", "min_banks_1port",
                  "min_banks_2port"});
        for (double gbps : {0.155, 0.622, 1.24, 2.0}) {
            for (unsigned flit : {128u, 256u}) {
                t2.addRow({Table::num(gbps, 3), std::to_string(flit),
                           std::to_string(VcMemoryModel::minBanksFor(
                               gbps * kGbps, flit, word, access, 1)),
                           std::to_string(VcMemoryModel::minBanksFor(
                               gbps * kGbps, flit, word, access, 2))});
            }
        }
        t2.print(std::cout);
        t2.printCsv(std::cout, "vc_memory_min_banks");

        // The §5 design point must be buildable with a small bank
        // count (single-chip feasibility).
        const unsigned need =
            VcMemoryModel::minBanksFor(1.24 * kGbps, 128, word, access);
        if (need > 8)
            ++failures;
        std::printf("shape check (<=8 banks sustain the 1.24 Gb/s "
                    "design point; bandwidth monotone in banks): %s\n",
                    failures == 0 ? "PASS" : "FAIL");
        return failures == 0 ? 0 : 2;
    });
}
