/**
 * @file
 * Extension: sequential prefetching vs. block size.
 *
 * One-block-lookahead prefetch (Smith) attacks the same spatial
 * locality that large blocks do, without the large-block miss
 * penalty.  The bench sweeps block size with prefetching off,
 * on-miss, and tagged, reporting miss ratio, execution time,
 * optimal block size, and prefetch accuracy - prefetching shifts
 * the optimal block size *down*, the mirror image of the Section 5
 * penalty-reducing mechanisms.
 */

#include <algorithm>
#include <iterator>

#include "bench/common.hh"
#include "core/blocksize_opt.hh"

using namespace cachetime;
using namespace cachetime::bench;

int
main()
{
    auto traces = standardTraces();
    SystemConfig base = SystemConfig::paperDefault();
    const std::vector<unsigned> blocks{2, 4, 8, 16, 32};

    const PrefetchPolicy policies[] = {PrefetchPolicy::None,
                                       PrefetchPolicy::OnMiss,
                                       PrefetchPolicy::Tagged};
    // One grid query: config p * blocks + k is policies[p] at
    // blocks[k].
    std::vector<SystemConfig> configs;
    for (PrefetchPolicy policy : policies) {
        for (unsigned block : blocks) {
            SystemConfig config = base;
            config.icache.prefetchPolicy = policy;
            config.dcache.prefetchPolicy = policy;
            config.setL1BlockWords(block);
            configs.push_back(config);
        }
    }
    const GridRuns grid = runGeoMeanGrid(configs, traces);
    const std::size_t at4 = static_cast<std::size_t>(
        std::find(blocks.begin(), blocks.end(), 4u) - blocks.begin());

    TablePrinter table({"policy", "optimal BS (W)",
                        "best exec (ns/ref)", "miss @4W",
                        "prefetch accuracy @4W"});
    for (std::size_t p = 0; p < std::size(policies); ++p) {
        BlockSizeCurve curve;
        curve.blockWords = blocks;
        for (std::size_t k = 0; k < blocks.size(); ++k)
            curve.execNsPerRef.push_back(
                grid.metrics[p * blocks.size() + k].execNsPerRef);
        double best = *std::min_element(curve.execNsPerRef.begin(),
                                        curve.execNsPerRef.end());

        // Accuracy at the paper's 4W block size, from that point's
        // per-trace runs.
        const std::size_t c = p * blocks.size() + at4;
        std::uint64_t issued = 0, used = 0;
        double miss4 = 0.0;
        for (std::size_t t = 0; t < traces.size(); ++t) {
            const SimResult &r = *grid.runs[c * traces.size() + t];
            issued += r.icache.prefetches + r.dcache.prefetches;
            used += r.icache.prefetchHits + r.dcache.prefetchHits;
            miss4 += r.readMissRatio();
        }
        miss4 /= static_cast<double>(traces.size());

        table.addRow(
            {prefetchPolicyName(policies[p]),
             TablePrinter::fmt(optimalBlockWords(curve), 1),
             TablePrinter::fmt(best, 2),
             TablePrinter::fmt(miss4, 4),
             issued == 0 ? "-"
                         : TablePrinter::fmt(
                               100.0 * used / issued, 1) + "%"});
    }
    emit(table, "Extension: sequential prefetch vs block size "
                "(64KB+64KB baseline)");
    std::cout << "prefetching buys spatial locality without the "
                 "large-block penalty, pushing the\noptimal block "
                 "size down - but on a one-word-per-cycle bus the "
                 "extra traffic and fill-port\ncontention eat the "
                 "latency savings: the miss *ratio* improves while "
                 "execution time\ndoes not, one more instance of "
                 "the paper's thesis\n";
    return 0;
}
