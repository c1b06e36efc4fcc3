/**
 * @file
 * Figure 5-4: the optimal block size collapses onto one curve when
 * plotted against the *product* of memory latency (cycles) and
 * transfer rate (words/cycle) - Smith's first-order result, which
 * the paper verifies by simulation.
 *
 * Also prints the "balanced" block size la x tr at which transfer
 * time equals latency (the dotted line of the figure) to show that
 * the real optimum does not follow it: above the line when the
 * product is small, below it when the product is large.
 */

#include <algorithm>

#include "bench/common.hh"
#include "core/blocksize_opt.hh"
#include "memory/memory_timing.hh"

using namespace cachetime;
using namespace cachetime::bench;

int
main()
{
    auto traces = standardTraces();
    SystemConfig base = SystemConfig::paperDefault();

    const std::vector<unsigned> blocks{1, 2, 4, 8, 16, 32, 64};
    const std::vector<double> latencies{100, 180, 260, 340, 420};
    const std::vector<TransferRate> rates{
        {4, 1}, {2, 1}, {1, 1}, {1, 2}, {1, 4}};

    // Every memory system's block sweep in one grid query.
    const std::vector<SystemConfig> memories =
        memorySystems(base, rates, latencies);
    const std::vector<BlockSizeCurve> curves =
        sweepBlockSize(memories, blocks, traces);

    TablePrinter table({"rate", "latency (cyc)", "la x tr",
                        "optimal BS (W)", "balanced BS (W)",
                        "opt/balanced"});
    for (std::size_t m = 0; m < memories.size(); ++m) {
        const SystemConfig &config = memories[m];
        const TransferRate &rate = config.memory.rate;
        MemoryTiming timing(config.memory, config.cycleNs);
        double la = static_cast<double>(timing.readLatencyCycles());
        double product = la * rate.wordsPerCycle();
        double opt = optimalBlockWords(curves[m]);
        double balanced = balancedBlockWords(la, rate);
        table.addRow({std::to_string(rate.words) + "W/" +
                          std::to_string(rate.cycles) + "cyc",
                      TablePrinter::fmt(la, 0),
                      TablePrinter::fmt(product, 1),
                      TablePrinter::fmt(opt, 1),
                      TablePrinter::fmt(balanced, 1),
                      TablePrinter::fmt(opt / balanced, 2)});
    }
    emit(table, "Figure 5-4: optimal block size vs the la x tr "
                "product (sorted by rate, then latency)");
    std::cout << "paper: points with equal la x tr line up; optimum "
                 "> balanced when the product is small, < balanced "
                 "when large\n";
    return 0;
}
