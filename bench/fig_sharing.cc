/**
 * @file
 * Extension: coherent multi-core sharing over the shared L2.
 *
 * The paper's machines are single-requester; this extension asks
 * what its cycle-cost methodology says once several cores with
 * private L1s share the L2 behind a snooping bus.  Three workloads
 * differ only in how much of each process's data stream targets the
 * segment every process maps at the same address; the grid crosses
 * that against the protocol (VI/MSI/MESI) and the core count.
 *
 * Expected shape: with no sharing the protocols coincide (VI pays a
 * little extra for its invalidate-on-any-bus-txn rule); as sharing
 * grows, coherence misses appear, VI degrades fastest, and MESI's
 * Exclusive state saves the upgrade transactions MSI pays on
 * private data written after a read.
 *
 * All nine machine points over the three workloads are one grid
 * query (runGeoMeanGrid), whose per-trace runs fill the table.  For
 * every point the run asserts the miss-class decomposition:
 * compulsory + capacity + conflict + coherence must equal the total
 * L1 misses.
 */

#include "bench/common.hh"
#include "cache/coherence.hh"

using namespace cachetime;
using namespace cachetime::bench;

int
main()
{
    armBench();
    double scale = benchScale(0.20);

    // Eight processes contending for one shared segment, at three
    // sharing intensities.  Everything else matches the VAX
    // multiprogramming flavour.
    struct SharingLevel
    {
        const char *name;
        double fraction;
    };
    const std::vector<SharingLevel> levels = {
        {"none", 0.0}, {"moderate", 0.15}, {"heavy", 0.35}};

    std::vector<Trace> traces;
    {
        telemetry::Span stage("trace-gen");
        for (std::size_t i = 0; i < levels.size(); ++i) {
            WorkloadSpec spec;
            spec.name = std::string("share-") + levels[i].name;
            spec.processes = 8;
            spec.lengthRefs = 1'200'000;
            spec.warmStartRefs = 300'000;
            spec.seed = 501 + i;
            spec.footprintScale = 0.8;
            spec.sharedFraction = levels[i].fraction;
            spec.sharedWords = 4 * 1024;
            traces.push_back(generate(spec, scale));
        }
    }

    const std::vector<CoherenceProtocol> protocols = {
        CoherenceProtocol::VI, CoherenceProtocol::MSI,
        CoherenceProtocol::MESI};
    const std::vector<unsigned> coreCounts = {1, 2, 4};

    std::vector<SystemConfig> configs;
    for (CoherenceProtocol protocol : protocols) {
        for (unsigned cores : coreCounts) {
            SystemConfig cfg = SystemConfig::paperDefault();
            cfg.cores = cores;
            cfg.protocol = protocol;
            cfg.applyCoherenceDefaults();
            cfg.validate();
            configs.push_back(cfg);
        }
    }

    TablePrinter table({"sharing", "protocol", "cores", "cycles/ref",
                        "read miss", "coh miss share", "inval/kref",
                        "upgrades/kref", "bus busy"});
    const GridRuns grid = runGeoMeanGrid(configs, traces);
    for (std::size_t t = 0; t < traces.size(); ++t) {
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const SimResult &r = *grid.runs[c * traces.size() + t];

            // The taxonomy must be a *decomposition*: every measured
            // L1 miss lands in exactly one of the four classes.
            std::uint64_t l1Misses = r.icache.readMisses +
                                     r.dcache.readMisses +
                                     r.dcache.writeMisses;
            if (r.missClasses.total() != l1Misses)
                fatal("fig_sharing: miss classes sum to %llu but the "
                      "L1s missed %llu times (%s, %s)",
                      static_cast<unsigned long long>(
                          r.missClasses.total()),
                      static_cast<unsigned long long>(l1Misses),
                      traces[t].name().c_str(),
                      r.configSummary.c_str());

            double refs = static_cast<double>(r.refs);
            double cohShare =
                l1Misses == 0
                    ? 0.0
                    : static_cast<double>(r.missClasses.coherence) /
                          static_cast<double>(l1Misses);
            table.addRow(
                {traces[t].name(),
                 coherenceProtocolName(configs[c].protocol),
                 std::to_string(configs[c].cores),
                 TablePrinter::fmt(r.cyclesPerRef(), 3),
                 TablePrinter::fmt(r.readMissRatio(), 4),
                 TablePrinter::fmt(cohShare, 4),
                 TablePrinter::fmt(
                     1000.0 * r.coherenceStats.invalidations / refs,
                     2),
                 TablePrinter::fmt(
                     1000.0 * r.coherenceStats.upgrades / refs, 2),
                 TablePrinter::fmt(
                     r.cycles == 0
                         ? 0.0
                         : static_cast<double>(
                               r.coherenceStats.busBusyCycles) /
                               static_cast<double>(r.cycles),
                     3)});
        }
    }
    emit(table, "Extension: sharing vs. protocol vs. cores "
                "(private L1s over the shared L2)");
    std::cout << "coherence misses are invalidation re-fetches; VI "
                 "invalidates on every bus\ntransaction, MSI pays "
                 "an upgrade per written shared line, MESI's E "
                 "state\nskips the upgrade for private data\n";
    return 0;
}
