/**
 * @file
 * Extension: virtual vs. physical cache addressing.
 *
 * The paper simulates virtual caches throughout (pid in the tag)
 * and motivates set associativity partly from virtual-memory
 * constraints on physical caches.  With the TLB substrate this
 * bench compares the two directly: physical placement scatters the
 * page-aligned conflict structure (helping direct-mapped caches)
 * but pays TLB miss penalties and loses the inter-process sharing
 * of index space.
 */

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

    SystemConfig physical = base;
    physical.addressing = AddressMode::Physical;
    physical.tlb.entries = 64;
    physical.tlb.assoc = 64;
    physical.tlb.pageWords = 1024;
    physical.tlb.missPenaltyCycles = 20;

    // One grid query: per size, the virtual machine, then the
    // physical one.
    std::vector<SystemConfig> configs;
    for (auto words_each : sizes) {
        SystemConfig v = base;
        v.setL1SizeWordsEach(words_each);
        configs.push_back(v);
        SystemConfig p = physical;
        p.setL1SizeWordsEach(words_each);
        configs.push_back(p);
    }
    const GridRuns grid = runGeoMeanGrid(configs, traces);
    const std::size_t T = traces.size();

    TablePrinter table({"total L1", "virtual miss", "physical miss",
                        "virtual ns/ref", "physical ns/ref",
                        "tlb miss"});
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        const std::uint64_t words_each = sizes[s];
        const AggregateMetrics &mv = grid.metrics[2 * s];
        const AggregateMetrics &mp = grid.metrics[2 * s + 1];

        // TLB counters come from the physical point's per-trace runs.
        double tlb_miss = 0;
        for (std::size_t t = 0; t < T; ++t)
            tlb_miss += grid.runs[(2 * s + 1) * T + t]->tlb.missRatio();
        tlb_miss /= static_cast<double>(T);

        table.addRow({TablePrinter::fmtSizeWords(2 * words_each),
                      TablePrinter::fmt(mv.readMissRatio, 4),
                      TablePrinter::fmt(mp.readMissRatio, 4),
                      TablePrinter::fmt(mv.execNsPerRef, 2),
                      TablePrinter::fmt(mp.execNsPerRef, 2),
                      TablePrinter::fmt(tlb_miss, 5)});
    }
    emit(table, "Extension: virtual vs physical L1 addressing "
                "(64-entry TLB, 20-cycle walk)");
    std::cout << "virtual caches avoid the TLB penalty but keep "
                 "pid-tagged conflicts; physical\nplacement "
                 "randomizes indices at a translation cost\n";
    return 0;
}
