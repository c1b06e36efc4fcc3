/**
 * @file
 * Figure 5-2: execution time vs. block size for every combination
 * of memory latency (100..420ns) and transfer rate (4 words/cycle
 * .. 1 word per 4 cycles).
 *
 * The paper: assuming a reasonable block size, execution time only
 * doubles across the entire range of memory systems - memory design
 * matters much less than cache size or cycle time.
 */

#include <algorithm>

#include "bench/common.hh"
#include "core/blocksize_opt.hh"

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
    const std::vector<BlockSizeCurve> curves = sweepBlockSize(
        memorySystems(base, rates, latencies), blocks, traces);

    double best = 1e300, worst_at_opt = 0.0;
    std::size_t at = 0;
    for (const TransferRate &rate : rates) {
        std::vector<std::string> headers{"latency"};
        for (unsigned b : blocks)
            headers.push_back(std::to_string(b) + "W");
        TablePrinter table(headers);
        for (double lat : latencies) {
            const BlockSizeCurve &curve = curves[at++];
            std::vector<std::string> row{
                TablePrinter::fmt(lat, 0) + "ns"};
            for (double e : curve.execNsPerRef)
                row.push_back(TablePrinter::fmt(e, 2));
            table.addRow(row);
            double opt = *std::min_element(curve.execNsPerRef.begin(),
                                           curve.execNsPerRef.end());
            best = std::min(best, opt);
            worst_at_opt = std::max(worst_at_opt, opt);
        }
        emit(table, "Figure 5-2: exec ns/ref vs block size, transfer "
                    "rate " + std::to_string(rate.words) + "W/" +
                    std::to_string(rate.cycles) + "cyc");
    }
    std::cout << "spread of best-block execution time across memory "
                 "systems: "
              << TablePrinter::fmt(worst_at_opt / best, 2)
              << "x (paper: ~2x)\n";
    return 0;
}
