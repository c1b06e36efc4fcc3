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

#include <utility>

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
    const std::vector<double> cycles{30.0, 40.0, 60.0};

    // One parallel query over (cycle time, size) x assoc: points that
    // differ only in cycle time share an L1 front end.
    std::vector<std::pair<double, std::uint64_t>> rows;
    for (double t : cycles)
        for (std::uint64_t words_each : sizes)
            rows.emplace_back(t, words_each);
    auto metrics = sweepGrid(
        runGeoMeanMany, rows, assocs, traces,
        [&](const std::pair<double, std::uint64_t> &row, unsigned a) {
            SystemConfig config = base;
            config.cycleNs = row.first;
            config.setL1SizeWordsEach(row.second);
            config.setL1Assoc(a);
            return config;
        });

    for (std::size_t c = 0; c < cycles.size(); ++c) {
        const double t = cycles[c];
        std::vector<std::string> headers{"total L1"};
        for (unsigned a : assocs)
            headers.push_back(std::to_string(a) + "-way (ns/ref)");
        headers.push_back("1->2 gain");
        TablePrinter table(headers);
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            std::uint64_t words_each = sizes[s];
            std::vector<std::string> row{
                TablePrinter::fmtSizeWords(2 * words_each)};
            double dm = 0.0, two = 0.0;
            for (std::size_t k = 0; k < assocs.size(); ++k) {
                unsigned a = assocs[k];
                const AggregateMetrics &m =
                    metrics[c * sizes.size() + s][k];
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
