/**
 * @file
 * Figure 4-1: read miss ratio vs. total cache size for set sizes
 * 1, 2, 4 and 8 (random replacement, total size held constant so a
 * doubling of associativity halves the number of sets).
 *
 * The paper: direct-mapped -> 2-way drops the miss ratio by ~20% up
 * to ~256KB total; above that the improvement *grows* because the
 * caches are virtual and inter-process conflicts, which extra sets
 * cannot remove, are removed by extra ways.  Improvements beyond
 * set size two are small.
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
    const std::vector<unsigned> assocs{1, 2, 4, 8};

    std::vector<std::string> headers{"total L1"};
    for (unsigned a : assocs)
        headers.push_back(std::to_string(a) + "-way");
    headers.push_back("1->2 drop");
    TablePrinter table(headers);

    std::vector<Series> curves;
    for (unsigned a : assocs)
        curves.push_back({std::to_string(a) + "-way", {}, {}});

    // Only miss ratios are reported, so the whole (size, assoc)
    // grid goes through the miss-ratio engine: the direct-mapped
    // column rides the single-pass stack sweep, the set-associative
    // columns (random replacement) the fused batch.
    auto metrics = sweepGrid(
        runMissRatioMany, sizes, assocs, traces,
        [&](std::uint64_t words_each, unsigned a) {
            SystemConfig config = base;
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
            const MissRatioMetrics &m = metrics[s][k];
            row.push_back(TablePrinter::fmt(m.readMissRatio, 4));
            curves[k].xs.push_back(
                static_cast<double>(2 * words_each) * 4 / 1024);
            curves[k].ys.push_back(m.readMissRatio);
            if (a == 1)
                dm = m.readMissRatio;
            if (a == 2)
                two = m.readMissRatio;
        }
        row.push_back(
            TablePrinter::fmt(100.0 * (dm - two) / dm, 1) + "%");
        table.addRow(row);
    }
    emit(table, "Figure 4-1: read miss ratio vs set size "
                "(random replacement)");

    if (!plotDir().empty()) {
        Report report("fig4_1", "Figure 4-1: read miss ratio vs "
                                "set size");
        report.axes("total L1 size (KB)", "read miss ratio");
        report.logX();
        report.logY();
        for (Series &curve : curves)
            report.add(std::move(curve));
        std::cout << "wrote " << report.write(plotDir()) << '\n';
    }
    return 0;
}
