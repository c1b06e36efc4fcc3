/**
 * @file
 * Figure 3-1: miss ratio and traffic ratios vs. total L1 size.
 *
 * The two caches are varied together from 2KB to 2MB each (total
 * 4KB..4MB); block size and every other parameter stay at the
 * Section 2 baseline.  Reported, per the paper: read miss ratio
 * (read misses per read request), load and ifetch miss ratios, the
 * read traffic ratio (4x the miss ratio at 4W blocks), and the two
 * write traffic ratios - counting all words of dirty blocks
 * replaced vs. only the dirty words themselves.
 */

#include "bench/common.hh"
#include "core/experiment.hh"
#include "core/report.hh"

using namespace cachetime;
using namespace cachetime::bench;

int
main()
{
    auto traces = standardTraces();
    auto sizes = sizeAxisWordsEach();
    SystemConfig base = SystemConfig::paperDefault();

    Series miss{"read miss ratio", {}, {}};
    Series traffic_blocks{"write traffic (blocks)", {}, {}};
    Series traffic_words{"write traffic (dirty words)", {}, {}};

    // One parallel batch over the whole size axis.
    std::vector<SystemConfig> configs;
    for (std::uint64_t words_each : sizes) {
        SystemConfig config = base;
        config.setL1SizeWordsEach(words_each);
        configs.push_back(config);
    }
    std::vector<AggregateMetrics> metrics =
        runGeoMeanMany(configs, traces);

    TablePrinter table({"total L1", "read miss", "ifetch miss",
                        "load miss", "read traffic", "write traffic",
                        "dirty-word traffic"});
    for (std::size_t k = 0; k < sizes.size(); ++k) {
        std::uint64_t words_each = sizes[k];
        const AggregateMetrics &m = metrics[k];
        table.addRow({TablePrinter::fmtSizeWords(2 * words_each),
                      TablePrinter::fmt(m.readMissRatio, 4),
                      TablePrinter::fmt(m.ifetchMissRatio, 4),
                      TablePrinter::fmt(m.loadMissRatio, 4),
                      TablePrinter::fmt(m.readTrafficRatio, 4),
                      TablePrinter::fmt(m.writeTrafficBlockRatio, 4),
                      TablePrinter::fmt(m.writeTrafficWordRatio, 4)});
        double kb = static_cast<double>(2 * words_each) * 4 / 1024;
        miss.xs.push_back(kb);
        miss.ys.push_back(m.readMissRatio);
        traffic_blocks.xs.push_back(kb);
        traffic_blocks.ys.push_back(m.writeTrafficBlockRatio);
        traffic_words.xs.push_back(kb);
        traffic_words.ys.push_back(m.writeTrafficWordRatio);
    }
    emit(table, "Figure 3-1: miss and traffic ratios vs total L1 size");

    if (!plotDir().empty()) {
        Report report("fig3_1", "Figure 3-1: miss and traffic "
                                "ratios vs total L1 size");
        report.axes("total L1 size (KB)", "ratio");
        report.logX();
        report.add(miss);
        report.add(traffic_blocks);
        report.add(traffic_words);
        std::cout << "wrote " << report.write(plotDir()) << '\n';
    }
    return 0;
}
