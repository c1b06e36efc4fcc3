/**
 * @file
 * Extension: write policy x write-buffer depth.
 *
 * The paper's baseline is write-back with a four-block buffer "of
 * sufficient depth that it essentially never fills up".  This bench
 * checks that claim and maps the write-through alternative: how
 * much buffer depth each policy needs before stalls stop mattering,
 * and what each costs in execution time.
 */

#include "bench/common.hh"
#include "core/experiment.hh"

using namespace cachetime;
using namespace cachetime::bench;

int
main()
{
    auto traces = standardTraces();
    SystemConfig base = SystemConfig::paperDefault();
    base.setL1SizeWordsEach(4 * 1024); // 16KB each: busier memory

    const WritePolicy policies[] = {WritePolicy::WriteBack,
                                    WritePolicy::WriteThrough};
    const unsigned depths[] = {1u, 2u, 4u, 8u, 16u};

    // One grid query over (policy, depth), in table order.
    std::vector<SystemConfig> configs;
    for (WritePolicy policy : policies) {
        for (unsigned depth : depths) {
            SystemConfig config = base;
            config.icache.writePolicy = policy;
            config.dcache.writePolicy = policy;
            config.l1Buffer.depth = depth;
            configs.push_back(config);
        }
    }
    const GridRuns grid = runGeoMeanGrid(configs, traces);
    const std::size_t T = traces.size();

    TablePrinter table({"policy", "depth", "ns/ref", "full stalls",
                        "read matches", "max occupancy"});
    std::size_t c = 0;
    for (WritePolicy policy : policies) {
        for (unsigned depth : depths) {
            const AggregateMetrics &m = grid.metrics[c];

            // Raw counters come from the point's per-trace runs.
            std::uint64_t stalls = 0, matches = 0;
            unsigned occupancy = 0;
            for (std::size_t t = 0; t < T; ++t) {
                const SimResult &r = *grid.runs[c * T + t];
                stalls += r.l1Buffer.fullStalls;
                matches += r.l1Buffer.readMatches;
                occupancy =
                    std::max(occupancy, r.l1Buffer.maxOccupancy);
            }
            ++c;
            table.addRow({writePolicyName(policy),
                          std::to_string(depth),
                          TablePrinter::fmt(m.execNsPerRef, 2),
                          std::to_string(stalls),
                          std::to_string(matches),
                          std::to_string(occupancy)});
        }
    }
    emit(table, "Extension: write policy and buffer depth "
                "(16KB+16KB L1)");
    std::cout << "paper's claim to verify: at depth 4 the "
                 "write-back buffer 'essentially never fills up'\n";
    return 0;
}
