/**
 * @file
 * Extension: how deep should the hierarchy go?
 *
 * Section 6 argues that as the CPU-memory speed gap grows, "the
 * only way to deliver a consistent proportion of the peak CPU
 * performance is through the use of a multilevel cache hierarchy".
 * This bench pushes that logic one step past the paper: with an
 * aggressive 8ns CPU and a slow (420ns) memory, it compares one-,
 * two- and three-level hierarchies.
 */

#include "bench/common.hh"
#include "core/experiment.hh"
#include "memory/memory_timing.hh"

using namespace cachetime;
using namespace cachetime::bench;

namespace
{

SystemConfig::MidLevelConfig
level(std::uint64_t kb, unsigned block_words, unsigned hit_cycles)
{
    SystemConfig::MidLevelConfig l;
    l.cache.sizeWords = kb * 1024 / 4;
    l.cache.blockWords = block_words;
    l.cache.assoc = 1;
    l.cache.allocPolicy = AllocPolicy::WriteAllocate;
    l.timing.hitCycles = hit_cycles;
    l.buffer.matchGranularityWords = block_words;
    return l;
}

} // namespace

int
main()
{
    auto traces = standardTraces();

    SystemConfig base = SystemConfig::paperDefault();
    base.cycleNs = 8.0;             // a 125MHz-class CPU
    base.setL1SizeWordsEach(2048);  // 8KB each
    base.memory.readLatencyNs = 420.0;
    base.memory.writeNs = 420.0;
    base.memory.recoveryNs = 420.0;

    MemoryTiming timing(base.memory, base.cycleNs);
    std::cout << "8ns CPU, 420ns memory: main-memory read penalty = "
              << timing.readTimeCycles(4) << " cycles\n\n";

    // One grid query over the three hierarchies.
    SystemConfig two = base;
    two.midLevels.push_back(level(256, 16, 4));
    SystemConfig three = two;
    three.midLevels.push_back(level(4096, 32, 14));
    const std::vector<AggregateMetrics> metrics =
        runGeoMeanMany({base, two, three}, traces);
    const char *const names[] = {"16KB L1 only", "+ 256KB L2 (4 cyc)",
                                 "+ 256KB L2 + 4MB L3 (14 cyc)"};

    TablePrinter table({"hierarchy", "cycles/ref", "ns/ref",
                        "speedup vs L1-only"});
    const double baseline = metrics[0].execNsPerRef;
    for (std::size_t h = 0; h < metrics.size(); ++h) {
        const AggregateMetrics &m = metrics[h];
        table.addRow({names[h], TablePrinter::fmt(m.cyclesPerRef, 3),
                      TablePrinter::fmt(m.execNsPerRef, 2),
                      h == 0 ? "1.00x"
                             : TablePrinter::fmt(
                                   baseline / m.execNsPerRef, 2) +
                                   "x"});
    }
    emit(table, "Extension: hierarchy depth under an 8ns CPU and "
                "420ns memory");
    std::cout << "each level keeps the *effective* miss penalty of "
                 "the level above it short -\nthe Section 6 "
                 "argument applied recursively\n";
    return 0;
}
