/**
 * @file
 * Ablation: time-free analytic estimation vs. full timing
 * simulation.
 *
 * The paper's thesis is that miss-count metrics miss real temporal
 * effects.  This bench quantifies that: it compares the measured
 * cycles per reference against the no-contention analytic estimate
 * (every miss pays the full penalty, writes are free) across cache
 * sizes, reporting the error the timing simulator exists to remove
 * (write-buffer stalls, memory contention, read-match delays,
 * write-back interference).
 */

#include "bench/common.hh"
#include "core/analytic.hh"
#include "core/experiment.hh"

using namespace cachetime;
using namespace cachetime::bench;

int
main()
{
    auto traces = standardTraces();
    auto sizes = sizeAxisWordsEach(1, 9);
    SystemConfig base = SystemConfig::paperDefault();

    std::vector<SystemConfig> configs;
    for (auto words_each : sizes) {
        SystemConfig config = base;
        config.setL1SizeWordsEach(words_each);
        configs.push_back(config);
    }
    const GridRuns grid = runGeoMeanGrid(configs, traces);
    const std::size_t T = traces.size();

    TablePrinter table({"total L1", "measured cyc/ref",
                        "analytic cyc/ref", "error"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const std::uint64_t words_each = sizes[c];
        double measured = 0.0, analytic = 0.0;
        for (std::size_t t = 0; t < T; ++t) {
            const SimResult &r = *grid.runs[c * T + t];
            measured += r.cyclesPerRef();
            analytic += estimateCyclesPerRef(r, configs[c]);
        }
        measured /= T;
        analytic /= T;
        table.addRow(
            {TablePrinter::fmtSizeWords(2 * words_each),
             TablePrinter::fmt(measured, 3),
             TablePrinter::fmt(analytic, 3),
             TablePrinter::fmt(
                 100.0 * (analytic - measured) / measured, 1) +
                 "%"});
    }
    emit(table, "Ablation: analytic (no-contention) estimate vs "
                "timing simulation");
    std::cout << "the gap is the temporal behaviour (buffer stalls, "
                 "contention, overlap) that miss-ratio analyses "
                 "cannot see\n";
    return 0;
}
