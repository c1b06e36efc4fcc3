/**
 * @file
 * Ablation: miss-penalty-reducing fetch policies.
 *
 * Section 5 lists early continuation (resume on the demanded word),
 * load forwarding (wrap-around transfer starting at the demanded
 * word) and streaming (data to CPU and cache simultaneously) as
 * techniques that "all have the effect of increasing the
 * performance-optimal block size".  This bench measures the optimal
 * block size and execution time with each combination enabled.
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

    struct Policy
    {
        const char *name;
        bool early, forward, stream;
    };
    const Policy policies[] = {
        {"baseline (wait for whole block)", false, false, false},
        {"early continuation", true, false, false},
        {"early + load forwarding", true, true, false},
        {"early + forwarding + streaming", true, true, true},
    };

    std::vector<SystemConfig> bases;
    for (const Policy &p : policies) {
        SystemConfig config = base;
        config.cpu.earlyContinuation = p.early;
        config.memory.loadForwarding = p.forward;
        config.memory.streaming = p.stream;
        bases.push_back(config);
    }
    const std::vector<BlockSizeCurve> curves =
        sweepBlockSize(bases, blocks, traces);

    TablePrinter table({"policy", "optimal BS (W)",
                        "best exec (ns/ref)"});
    for (std::size_t i = 0; i < bases.size(); ++i) {
        const BlockSizeCurve &curve = curves[i];
        double best = *std::min_element(curve.execNsPerRef.begin(),
                                        curve.execNsPerRef.end());
        table.addRow({policies[i].name,
                      TablePrinter::fmt(optimalBlockWords(curve), 1),
                      TablePrinter::fmt(best, 2)});
    }
    emit(table, "Ablation: fetch policies vs optimal block size");
    std::cout << "paper: these mechanisms increase the "
                 "performance-optimal block size\n";
    return 0;
}
