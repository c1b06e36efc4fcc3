/**
 * @file
 * Figure 3-4: lines of equal performance across the (cache size,
 * cycle time) design space.
 *
 * For each performance level (multiples of the best execution time)
 * the bench prints the cycle time each cache size could run at and
 * still deliver that level, found by vertical interpolation between
 * simulated cycle times.  It then prints the slope of the
 * equal-performance surface in nanoseconds of cycle time per
 * doubling of cache size: the paper's shaded-region map, with >10ns
 * per doubling at the small end and <2.5ns beyond ~256KB.  Finally
 * it reruns the paper's worked example: 16KB total at 40ns vs 64KB
 * total at 50ns (the paper reports the bigger-but-slower machine
 * wins by 7.3%).  The first is a point of the simulated grid; the
 * second, off the 4ns cycle axis, is one more query.
 */

#include <algorithm>
#include <cmath>

#include "bench/common.hh"
#include "core/tradeoff.hh"

using namespace cachetime;
using namespace cachetime::bench;

int
main()
{
    auto traces = standardTraces();
    auto sizes = sizeAxisWordsEach();
    auto cycles = cycleAxisNs(20.0, 80.0, 4.0);
    SystemConfig base = SystemConfig::paperDefault();

    const SpeedSizeGrid raw =
        buildSpeedSizeGrid(base, sizes, cycles, traces);
    SpeedSizeGrid grid = raw.smoothed();
    double best = grid.bestExecNsPerRef();

    // Lines of equal performance at 1.1, 1.4, 1.7, ... x best (the
    // paper's 0.3 increments starting at 1.1).
    {
        std::vector<std::string> headers{"perf level"};
        for (auto s : sizes)
            headers.push_back(TablePrinter::fmtSizeWords(2 * s));
        TablePrinter table(headers);
        for (double level = 1.1; level <= 4.2; level += 0.3) {
            auto line = equalPerformanceLine(grid, level * best);
            std::vector<std::string> row{
                TablePrinter::fmt(level, 1) + "x"};
            for (double t : line)
                row.push_back(std::isnan(t) ? "-"
                                            : TablePrinter::fmt(t, 1));
            table.addRow(row);
        }
        emit(table, "Figure 3-4: cycle time (ns) on each "
                    "equal-performance line");
    }

    // Slope map: ns of cycle time per doubling of cache size.
    {
        std::vector<std::string> headers{"cycle (ns)"};
        for (std::size_t i = 0; i + 1 < sizes.size(); ++i)
            headers.push_back(
                TablePrinter::fmtSizeWords(2 * sizes[i]) + "->" +
                TablePrinter::fmtSizeWords(2 * sizes[i + 1]));
        TablePrinter table(headers);
        for (double t : {24.0, 32.0, 40.0, 48.0, 56.0, 64.0, 72.0}) {
            std::vector<std::string> row{TablePrinter::fmt(t, 0)};
            for (std::size_t i = 0; i + 1 < sizes.size(); ++i)
                row.push_back(TablePrinter::fmt(
                    slopeNsPerDoubling(grid, i, t), 1));
            table.addRow(row);
        }
        emit(table, "Figure 3-4 slopes: ns per doubling of total "
                    "L1 size (paper regions: >10ns small, <2.5ns "
                    "large)");
    }

    // The worked example: 8KB/cache at 40ns, read from the raw grid,
    // vs 32KB/cache at 50ns.
    {
        const std::size_t small_size = static_cast<std::size_t>(
            std::find(sizes.begin(), sizes.end(), 2 * 1024) -
            sizes.begin()); // 8KB each, 16KB total
        const std::size_t small_cycle = static_cast<std::size_t>(
            std::find(cycles.begin(), cycles.end(), 40.0) -
            cycles.begin());
        SystemConfig big = base;
        big.setL1SizeWordsEach(8 * 1024); // 32KB each, 64KB total
        big.cycleNs = 50.0;
        double exec_small = raw.execNsPerRef[small_size][small_cycle];
        double exec_big = runGeoMean(big, traces).execNsPerRef;
        std::cout << "worked example: 16KB@40ns = "
                  << TablePrinter::fmt(exec_small / best, 3)
                  << "x best, 64KB@50ns = "
                  << TablePrinter::fmt(exec_big / best, 3)
                  << "x best -> bigger-but-slower wins by "
                  << TablePrinter::fmt(
                         100.0 * (exec_small - exec_big) / exec_small,
                         1)
                  << "% (paper: 7.3%)\n";
    }
    return 0;
}
