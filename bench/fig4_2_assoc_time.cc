/**
 * @file
 * Figure 4-2: execution time vs. cache size, set associativity and
 * cycle time (memory model of Table 2, equal cycle time for all set
 * sizes - i.e. before charging any implementation penalty).
 *
 * The paper: ~10% execution-time improvement at 4KB total for
 * 1 -> 2 ways; much less for large caches, since a constant
 * percentage drop in misses is a shrinking share of execution time.
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
    const std::vector<unsigned> assocs{1, 2, 4, 8};

    for (double t : {30.0, 40.0, 60.0}) {
        std::vector<std::string> headers{"total L1"};
        for (unsigned a : assocs)
            headers.push_back(std::to_string(a) + "-way (ns/ref)");
        headers.push_back("1->2 gain");
        TablePrinter table(headers);
        // One parallel batch per cycle time over (size, assoc).
        auto metrics = sweepGrid(
            runGeoMeanMany, sizes, assocs, traces,
            [&](std::uint64_t words_each, unsigned a) {
                SystemConfig config = base;
                config.cycleNs = t;
                config.setL1SizeWordsEach(words_each);
                config.setL1Assoc(a);
                return config;
            });
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            std::uint64_t words_each = sizes[s];
            std::vector<std::string> row{
                TablePrinter::fmtSizeWords(2 * words_each)};
            double dm = 0.0, two = 0.0;
            for (std::size_t k = 0; k < assocs.size(); ++k) {
                unsigned a = assocs[k];
                const AggregateMetrics &m = metrics[s][k];
                row.push_back(TablePrinter::fmt(m.execNsPerRef, 2));
                if (a == 1)
                    dm = m.execNsPerRef;
                if (a == 2)
                    two = m.execNsPerRef;
            }
            row.push_back(
                TablePrinter::fmt(100.0 * (dm - two) / dm, 1) + "%");
            table.addRow(row);
        }
        emit(table, "Figure 4-2: execution time vs set size at " +
                        TablePrinter::fmt(t, 0) + "ns");
    }
    return 0;
}
