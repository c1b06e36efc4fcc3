/**
 * @file
 * Figure 5-3: the (non-integral) execution-time-optimal block size
 * as a function of memory latency and transfer rate, estimated by
 * the paper's parabola fit through the three lowest points.
 *
 * Also reports the paper's sensitivity numbers: each 80ns (2-cycle)
 * latency increase costs 3-6% execution time, each halving of the
 * transfer rate 3-13%.
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

    std::vector<std::string> headers{"rate \\ latency"};
    for (double lat : latencies)
        headers.push_back(TablePrinter::fmt(lat, 0) + "ns");
    TablePrinter table(headers);

    // Every memory system's block sweep in one grid query.
    const std::vector<BlockSizeCurve> curves = sweepBlockSize(
        memorySystems(base, rates, latencies), blocks, traces);

    // exec-at-optimum for the sensitivity summary
    std::vector<std::vector<double>> opt_exec(
        rates.size(), std::vector<double>(latencies.size()));

    for (std::size_t r = 0; r < rates.size(); ++r) {
        std::vector<std::string> row{
            std::to_string(rates[r].words) + "W/" +
            std::to_string(rates[r].cycles) + "cyc"};
        for (std::size_t l = 0; l < latencies.size(); ++l) {
            const BlockSizeCurve &curve =
                curves[r * latencies.size() + l];
            row.push_back(
                TablePrinter::fmt(optimalBlockWords(curve), 1));
            opt_exec[r][l] =
                *std::min_element(curve.execNsPerRef.begin(),
                                  curve.execNsPerRef.end());
        }
        table.addRow(row);
    }
    emit(table, "Figure 5-3: optimal block size (words) vs memory "
                "parameters");

    // Sensitivities at the optimum block size.
    double lat_lo = 1e300, lat_hi = 0.0;
    for (std::size_t r = 0; r < rates.size(); ++r) {
        for (std::size_t l = 0; l + 1 < latencies.size(); ++l) {
            double chg = 100.0 * (opt_exec[r][l + 1] / opt_exec[r][l] -
                                  1.0);
            lat_lo = std::min(lat_lo, chg);
            lat_hi = std::max(lat_hi, chg);
        }
    }
    double rate_lo = 1e300, rate_hi = 0.0;
    for (std::size_t r = 0; r + 1 < rates.size(); ++r) {
        for (std::size_t l = 0; l < latencies.size(); ++l) {
            double chg = 100.0 * (opt_exec[r + 1][l] / opt_exec[r][l] -
                                  1.0);
            rate_lo = std::min(rate_lo, chg);
            rate_hi = std::max(rate_hi, chg);
        }
    }
    std::cout << "exec-time cost of +80ns latency: "
              << TablePrinter::fmt(lat_lo, 1) << "% .. "
              << TablePrinter::fmt(lat_hi, 1)
              << "% (paper: 3-6%)\n";
    std::cout << "exec-time cost of halving transfer rate: "
              << TablePrinter::fmt(rate_lo, 1) << "% .. "
              << TablePrinter::fmt(rate_hi, 1)
              << "% (paper: 3-13%)\n";
    return 0;
}
