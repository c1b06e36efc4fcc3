/**
 * @file
 * Extension: designing the second level (Section 6's closing
 * question made concrete).
 *
 * "The fundamental question - how to get some desired performance
 * level out of a very short cycle time machine - becomes 'what
 * cache miss penalty is required?'"  For a fast machine with small
 * L1s, this bench sweeps the L2 hit time and L2 size, reporting
 * cycles per reference; reading a row gives the L2 speed needed to
 * hit a cycles-per-reference goal, and the no-L2 column shows the
 * main-memory penalty it replaces.
 */

#include "bench/common.hh"
#include "core/experiment.hh"
#include "memory/memory_timing.hh"

using namespace cachetime;
using namespace cachetime::bench;

int
main()
{
    auto traces = standardTraces();

    SystemConfig base = SystemConfig::paperDefault();
    base.cycleNs = 15.0;             // very fast CPU
    base.setL1SizeWordsEach(2048);   // 8KB each

    MemoryTiming timing(base.memory, base.cycleNs);
    AggregateMetrics no_l2 = runGeoMean(base, traces);
    std::cout << "machine: 15ns CPU, 16KB total L1; main-memory "
                 "read penalty "
              << timing.readTimeCycles(base.dcache.blockWords)
              << " cycles; cycles/ref without L2 = "
              << TablePrinter::fmt(no_l2.cyclesPerRef, 3) << "\n\n";

    const std::vector<unsigned> hit_cycles{2, 3, 5, 8, 12};
    const std::vector<std::uint64_t> l2_kb{128, 512, 2048};

    std::vector<std::string> headers{"L2 hit (cycles)"};
    for (auto kb : l2_kb)
        headers.push_back(std::to_string(kb) + "KB L2");
    TablePrinter table(headers);
    // One parallel batch over the (hit time, L2 size) grid.
    auto metrics = sweepGrid(
        runGeoMeanMany, hit_cycles, l2_kb, traces,
        [&](unsigned hit, std::uint64_t kb) {
            SystemConfig config = base;
            config.hasL2 = true;
            config.l2cache.sizeWords = kb * 1024 / 4;
            config.l2cache.blockWords = 16;
            config.l2cache.allocPolicy = AllocPolicy::WriteAllocate;
            config.l2Timing.hitCycles = hit;
            config.l2Buffer.matchGranularityWords = 16;
            return config;
        });
    for (std::size_t h = 0; h < hit_cycles.size(); ++h) {
        std::vector<std::string> row{std::to_string(hit_cycles[h])};
        for (std::size_t k = 0; k < l2_kb.size(); ++k)
            row.push_back(
                TablePrinter::fmt(metrics[h][k].cyclesPerRef, 3));
        table.addRow(row);
    }
    emit(table, "Extension: cycles/ref vs L2 hit time and size "
                "(15ns CPU, 16KB total L1)");
    std::cout << "pick the target cycles/ref, read off the required "
                 "L2: the Section 6 design recipe\n";
    return 0;
}
