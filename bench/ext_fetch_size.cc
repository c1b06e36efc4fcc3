/**
 * @file
 * Extension: sub-block fetch sizes (the paper's "fetch size"
 * parameter, after Hill & Smith's on-chip cache study).
 *
 * Large blocks cut the tag count while small fetches cap the miss
 * penalty at la + fetch/tr; per-word valid bits track partial
 * blocks.  The bench sweeps fetch size within a fixed 32W block and
 * compares against whole-block organizations of each fetch size, at
 * two memory speeds.
 */

#include "bench/common.hh"
#include "core/experiment.hh"

using namespace cachetime;
using namespace cachetime::bench;

int
main()
{
    auto traces = standardTraces();
    const double latencies[] = {180.0, 420.0};
    const unsigned sizes[] = {4u, 8u, 16u, 32u};

    // One grid query, in the order the tables print: per latency,
    // 32W blocks at each sub-block fetch size, then whole-block
    // fetch at each block size.
    std::vector<SystemConfig> configs;
    for (double latency : latencies) {
        SystemConfig base = SystemConfig::paperDefault();
        base.memory.readLatencyNs = latency;
        base.memory.writeNs = latency;
        base.memory.recoveryNs = latency;
        for (unsigned fetch : sizes) {
            SystemConfig config = base;
            config.setL1BlockWords(32);
            config.icache.fetchWords = fetch;
            config.dcache.fetchWords = fetch;
            config.l1Buffer.matchGranularityWords = 32;
            configs.push_back(config);
        }
        for (unsigned block : sizes) {
            SystemConfig config = base;
            config.setL1BlockWords(block);
            configs.push_back(config);
        }
    }
    const GridRuns grid = runGeoMeanGrid(configs, traces);
    const std::size_t T = traces.size();

    std::size_t c = 0;
    for (double latency : latencies) {
        TablePrinter table({"organization", "read miss",
                            "sub-block miss share", "ns/ref"});
        for (unsigned fetch : sizes) {
            const AggregateMetrics &m = grid.metrics[c];

            // Sub-block-miss share needs the point's raw counters.
            double sub = 0, misses = 0;
            for (std::size_t t = 0; t < T; ++t) {
                const SimResult &r = *grid.runs[c * T + t];
                sub += static_cast<double>(r.icache.subBlockMisses +
                                           r.dcache.subBlockMisses);
                misses += static_cast<double>(r.icache.readMisses +
                                              r.dcache.readMisses);
            }
            ++c;
            table.addRow(
                {"32W block / " + std::to_string(fetch) + "W fetch",
                 TablePrinter::fmt(m.readMissRatio, 4),
                 TablePrinter::fmt(misses > 0 ? sub / misses : 0.0,
                                   2),
                 TablePrinter::fmt(m.execNsPerRef, 2)});
        }
        for (unsigned block : sizes) {
            const AggregateMetrics &m = grid.metrics[c++];
            table.addRow({std::to_string(block) +
                              "W block / whole-block fetch",
                          TablePrinter::fmt(m.readMissRatio, 4), "-",
                          TablePrinter::fmt(m.execNsPerRef, 2)});
        }
        emit(table, "Extension: fetch size, " +
                        TablePrinter::fmt(latency, 0) +
                        "ns latency memory");
    }
    std::cout << "sub-block fetching buys large-block tag economy "
                 "at small-fetch miss penalties;\nits value grows "
                 "with memory latency\n";
    return 0;
}
