/**
 * @file
 * Figure 5-1: miss ratios and relative execution time vs. block
 * size for the default 64KB+64KB organization with a 260ns-latency
 * memory.
 *
 * The paper: the miss-ratio-optimal block size is large (32W for
 * data, >64W for instructions) but the execution-time optimum is
 * much smaller, because the miss penalty la + BS/tr grows with the
 * block size.
 */

#include <algorithm>

#include "bench/common.hh"
#include "core/blocksize_opt.hh"

using namespace cachetime;
using namespace cachetime::bench;

int
main()
{
    auto traces = standardTraces();
    SystemConfig base = SystemConfig::paperDefault();
    base.memory.readLatencyNs = 260.0;
    base.memory.writeNs = 260.0;
    base.memory.recoveryNs = 260.0;

    const std::vector<unsigned> blocks{1, 2, 4, 8, 16, 32, 64, 128};
    BlockSizeCurve curve = sweepBlockSize({base}, blocks, traces)[0];

    double best_exec =
        *std::min_element(curve.execNsPerRef.begin(),
                          curve.execNsPerRef.end());

    TablePrinter table({"block (W)", "read miss", "ifetch miss",
                        "load miss", "rel exec time"});
    for (std::size_t k = 0; k < blocks.size(); ++k) {
        table.addRow({std::to_string(blocks[k]),
                      TablePrinter::fmt(curve.readMissRatio[k], 4),
                      TablePrinter::fmt(curve.ifetchMissRatio[k], 4),
                      TablePrinter::fmt(curve.loadMissRatio[k], 4),
                      TablePrinter::fmt(
                          curve.execNsPerRef[k] / best_exec, 3)});
    }
    emit(table, "Figure 5-1: block size sweep, 64KB I+D, 260ns "
                "latency memory");

    std::cout << "miss-optimal block size: "
              << TablePrinter::fmt(missOptimalBlockWords(curve), 1)
              << "W; exec-time-optimal: "
              << TablePrinter::fmt(optimalBlockWords(curve), 1)
              << "W (paper: exec optimum much smaller than miss "
                 "optimum)\n";
    return 0;
}
