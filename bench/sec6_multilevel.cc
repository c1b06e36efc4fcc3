/**
 * @file
 * Section 6: multi-level cache hierarchies.
 *
 * The paper's closing argument: a second-level cache reduces the
 * first-level miss penalty, which (a) lowers cycles per reference
 * for small L1s and (b) shrinks the worth of an L1 size doubling,
 * so small fast caches become viable again.  This bench sweeps the
 * L1 size at several cycle times with and without a 512KB unified
 * L2 and reports execution time and where the optimal (size, cycle
 * time) moves.
 */

#include <limits>

#include "bench/common.hh"
#include "core/experiment.hh"

using namespace cachetime;
using namespace cachetime::bench;

namespace
{

SystemConfig
withL2(const SystemConfig &base)
{
    SystemConfig config = base;
    config.hasL2 = true;
    config.l2cache.sizeWords = 128 * 1024; // 512KB unified
    config.l2cache.blockWords = 16;
    config.l2cache.assoc = 1;
    config.l2cache.writePolicy = WritePolicy::WriteBack;
    config.l2cache.allocPolicy = AllocPolicy::WriteAllocate;
    config.l2cache.replPolicy = ReplPolicy::Random;
    config.l2Timing.hitCycles = 3;
    config.l2Buffer.depth = 4;
    config.l2Buffer.matchGranularityWords = 16;
    return config;
}

} // namespace

int
main()
{
    auto traces = standardTraces();
    auto sizes = sizeAxisWordsEach(1, 7); // 4KB .. 256KB total L1
    const std::vector<double> cycles{20.0, 30.0, 40.0, 60.0};
    SystemConfig base = SystemConfig::paperDefault();

    for (bool l2 : {false, true}) {
        std::vector<std::string> headers{"total L1"};
        for (double t : cycles)
            headers.push_back(TablePrinter::fmt(t, 0) + "ns");
        TablePrinter table(headers);

        // One parallel batch per hierarchy over (size, cycle time).
        auto metrics = sweepGrid(
            runGeoMeanMany, sizes, cycles, traces,
            [&](std::uint64_t words_each, double t) {
                SystemConfig config = l2 ? withL2(base) : base;
                config.setL1SizeWordsEach(words_each);
                config.cycleNs = t;
                return config;
            });

        double best = std::numeric_limits<double>::infinity();
        std::string best_at;
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            std::uint64_t words_each = sizes[s];
            std::vector<std::string> row{
                TablePrinter::fmtSizeWords(2 * words_each)};
            for (std::size_t j = 0; j < cycles.size(); ++j) {
                double t = cycles[j];
                const AggregateMetrics &m = metrics[s][j];
                row.push_back(TablePrinter::fmt(m.execNsPerRef, 2));
                if (m.execNsPerRef < best) {
                    best = m.execNsPerRef;
                    best_at =
                        TablePrinter::fmtSizeWords(2 * words_each) +
                        " @ " + TablePrinter::fmt(t, 0) + "ns";
                }
            }
            table.addRow(row);
        }
        emit(table, l2 ? "Section 6: exec ns/ref WITH 512KB L2"
                       : "Section 6: exec ns/ref, single-level");
        std::cout << "best point: " << best_at << " ("
                  << TablePrinter::fmt(best, 2) << " ns/ref)\n\n";
    }
    std::cout << "paper: the L2 shifts the optimum toward smaller, "
                 "faster L1s and improves the fast-clock corner "
                 "most\n";
    return 0;
}
