/**
 * @file
 * Block-size tuning for a given memory system (Section 5 as a
 * recipe).
 *
 * Pass the memory latency in nanoseconds and the transfer rate as
 * words-per-cycle numerator/denominator; the tool sweeps block
 * sizes, prints the miss-ratio and execution-time curves, reports
 * the parabola-fit optimum, and compares it with the naive
 * "balance transfer time against latency" rule.
 *
 * Usage: blocksize_tuner [latency_ns [rate_words rate_cycles [scale]]]
 * e.g.:  blocksize_tuner 260 1 2        # 260ns DRAM, W/2cyc bus
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "core/blocksize_opt.hh"
#include "memory/memory_timing.hh"
#include "trace/workloads.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace cachetime;

int
main(int argc, char **argv)
{
    double latency = argc > 1 ? std::atof(argv[1]) : 260.0;
    unsigned rate_words =
        argc > 3 ? static_cast<unsigned>(std::atoi(argv[2])) : 1;
    unsigned rate_cycles =
        argc > 3 ? static_cast<unsigned>(std::atoi(argv[3])) : 1;
    double scale = argc > 4 ? std::atof(argv[4]) : 0.05;

    setQuiet(true);
    auto traces = generateTable1(scale);

    SystemConfig config = SystemConfig::paperDefault();
    config.memory.readLatencyNs = latency;
    config.memory.writeNs = latency;
    config.memory.recoveryNs = latency;
    config.memory.rate = {rate_words, rate_cycles};

    MemoryTiming timing(config.memory, config.cycleNs);
    std::cout << "memory: " << latency << "ns latency ("
              << timing.readLatencyCycles() << " cycles), "
              << rate_words << "W/" << rate_cycles
              << "cyc transfer\n\n";

    const std::vector<unsigned> blocks{1, 2, 4, 8, 16, 32, 64, 128};
    BlockSizeCurve curve = sweepBlockSize({config}, blocks, traces)[0];

    double best = *std::min_element(curve.execNsPerRef.begin(),
                                    curve.execNsPerRef.end());
    TablePrinter table({"block (W)", "read miss", "rel exec"});
    for (std::size_t k = 0; k < blocks.size(); ++k) {
        table.addRow({std::to_string(blocks[k]),
                      TablePrinter::fmt(curve.readMissRatio[k], 4),
                      TablePrinter::fmt(
                          curve.execNsPerRef[k] / best, 3)});
    }
    table.print(std::cout);

    double la = static_cast<double>(timing.readLatencyCycles());
    std::cout << "\nexec-time-optimal block size:  "
              << TablePrinter::fmt(optimalBlockWords(curve), 1)
              << " words\n";
    std::cout << "miss-ratio-optimal block size: "
              << TablePrinter::fmt(missOptimalBlockWords(curve), 1)
              << " words\n";
    std::cout << "naive balanced block (la x tr): "
              << TablePrinter::fmt(
                     balancedBlockWords(la, config.memory.rate), 1)
              << " words\n";
    std::cout << "\npick by execution time, not by miss ratio: the "
                 "penalty la + BS/tr makes big\nblocks expensive "
                 "long before the miss ratio turns around.\n";
    return 0;
}
