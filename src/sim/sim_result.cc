#include "sim/sim_result.hh"

#include "stats/stats.hh"
#include "util/logging.hh"

namespace cachetime
{

namespace
{

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

} // namespace

const CacheStats &
SimResult::l2() const
{
    static const CacheStats empty;
    return midLevels.empty() ? empty : midLevels.front();
}

const WriteBufferStats &
SimResult::l2Buffer() const
{
    static const WriteBufferStats empty;
    return midBuffers.empty() ? empty : midBuffers.front();
}

void
SimResult::mergeCounters(const SimResult &other)
{
    refs += other.refs;
    readRefs += other.readRefs;
    writeRefs += other.writeRefs;
    groups += other.groups;
    cycles += other.cycles;
    icache.merge(other.icache);
    dcache.merge(other.dcache);
    auto mergeVec = [](auto &into, const auto &from,
                       const char *what) {
        if (from.empty())
            return;
        if (into.size() != from.size())
            panic("SimResult::mergeCounters: %s size mismatch "
                  "(%zu vs %zu)",
                  what, into.size(), from.size());
        for (std::size_t i = 0; i < into.size(); ++i)
            into[i].merge(from[i]);
    };
    mergeVec(midLevels, other.midLevels, "midLevels");
    mergeVec(midBuffers, other.midBuffers, "midBuffers");
    l1Buffer.merge(other.l1Buffer);
    memory.merge(other.memory);
    tlb.merge(other.tlb);
    mergeVec(coreIcache, other.coreIcache, "coreIcache");
    mergeVec(coreDcache, other.coreDcache, "coreDcache");
    coherenceStats.merge(other.coherenceStats);
    missClasses.merge(other.missClasses);
    missPenaltyCycles.merge(other.missPenaltyCycles);
    stallReadCycles += other.stallReadCycles;
    stallWriteCycles += other.stallWriteCycles;
    stallTlbCycles += other.stallTlbCycles;
}

double
SimResult::cyclesPerRef() const
{
    return ratio(static_cast<double>(cycles),
                 static_cast<double>(refs));
}

double
SimResult::execNsPerRef() const
{
    return cyclesPerRef() * cycleNs;
}

double
SimResult::totalExecNs() const
{
    return static_cast<double>(cycles) * cycleNs;
}

double
SimResult::readMissRatio() const
{
    double misses = static_cast<double>(icache.readMisses) +
                    static_cast<double>(dcache.readMisses);
    double reads = static_cast<double>(icache.readAccesses) +
                   static_cast<double>(dcache.readAccesses);
    return ratio(misses, reads);
}

double
SimResult::ifetchMissRatio() const
{
    return icache.readMissRatio();
}

double
SimResult::loadMissRatio() const
{
    return dcache.readMissRatio();
}

double
SimResult::readTrafficRatio() const
{
    double words = static_cast<double>(icache.wordsFetched) +
                   static_cast<double>(dcache.wordsFetched);
    double reads = static_cast<double>(icache.readAccesses) +
                   static_cast<double>(dcache.readAccesses);
    return ratio(words, reads);
}

double
SimResult::writeTrafficBlockRatio(unsigned blockWords) const
{
    double blocks = static_cast<double>(icache.dirtyBlocksReplaced) +
                    static_cast<double>(dcache.dirtyBlocksReplaced);
    double through =
        static_cast<double>(icache.wordsWrittenThrough) +
        static_cast<double>(dcache.wordsWrittenThrough);
    return ratio(blocks * blockWords + through,
                 static_cast<double>(refs));
}

double
SimResult::writeTrafficWordRatio() const
{
    double words = static_cast<double>(icache.dirtyWordsReplaced) +
                   static_cast<double>(dcache.dirtyWordsReplaced);
    double through =
        static_cast<double>(icache.wordsWrittenThrough) +
        static_cast<double>(dcache.wordsWrittenThrough);
    return ratio(words + through, static_cast<double>(refs));
}

void
SimResult::regStats(stats::Registry &registry,
                    const std::string &root) const
{
    auto name = [&](const char *leaf) { return root + "." + leaf; };

    registry.addValue(name("cycleNs"), "CPU cycle time in ns",
                      [this] { return cycleNs; });
    registry.addScalar(name("refs"), "references measured",
                       [this] { return refs; });
    registry.addScalar(name("readRefs"), "loads + ifetches measured",
                       [this] { return readRefs; });
    registry.addScalar(name("writeRefs"), "stores measured",
                       [this] { return writeRefs; });
    registry.addScalar(name("groups"),
                       "issue groups (couplets count 1)",
                       [this] { return groups; });
    registry.addScalar(name("cycles"), "cycles consumed",
                       [this] { return cycles; });

    registry.addFormula(name("cyclesPerRef"),
                        "total cycles / total references",
                        [this] { return cyclesPerRef(); });
    registry.addFormula(name("execNsPerRef"),
                        "execution time per reference, ns",
                        [this] { return execNsPerRef(); });
    registry.addFormula(name("totalExecNs"),
                        "total execution time, ns",
                        [this] { return totalExecNs(); });
    registry.addFormula(name("readMissRatio"),
                        "combined L1 read miss ratio",
                        [this] { return readMissRatio(); });
    registry.addFormula(name("readTrafficRatio"),
                        "words fetched below L1 per read",
                        [this] { return readTrafficRatio(); });
    registry.addFormula(name("writeTrafficWordRatio"),
                        "dirty words + write-throughs per reference",
                        [this] { return writeTrafficWordRatio(); });

    registry.addScalar(name("stallReadCycles"),
                       "cycles read misses held the CPU",
                       [this] { return stallReadCycles; });
    registry.addScalar(name("stallWriteCycles"),
                       "cycles writes held the CPU",
                       [this] { return stallWriteCycles; });
    registry.addScalar(name("stallTlbCycles"),
                       "cycles TLB walks held the CPU",
                       [this] { return stallTlbCycles; });
    registry.addHistogram(name("missPenaltyCycles"),
                          "observed L1 read-miss service times",
                          &missPenaltyCycles);

    icache.regStats(registry, root + ".l1i");
    dcache.regStats(registry, root + ".l1d");
    l1Buffer.regStats(registry, root + ".l1wbuf");
    for (std::size_t i = 0; i < midLevels.size(); ++i) {
        std::string level = "l";
        level += std::to_string(i + 2);
        midLevels[i].regStats(registry, root + "." + level);
        if (i < midBuffers.size())
            midBuffers[i].regStats(registry,
                                   root + "." + level + "wbuf");
    }
    memory.regStats(registry, root + ".mem");
    if (physical)
        tlb.regStats(registry, root + ".tlb");

    if (coherent) {
        registry.addScalar(name("cores"), "simulated cores",
                           [this] { return cores; });
        std::string coh = root + ".coh";
        auto cname = [&](const char *leaf) {
            return coh + "." + leaf;
        };
        registry.addScalar(cname("busTransactions"),
                           "bus transactions arbitrated",
                           [this] {
                               return coherenceStats.busTransactions;
                           });
        registry.addScalar(cname("snoops"),
                           "transactions peers observed",
                           [this] { return coherenceStats.snoops; });
        registry.addScalar(cname("invalidations"),
                           "peer copies invalidated",
                           [this] {
                               return coherenceStats.invalidations;
                           });
        registry.addScalar(cname("upgrades"),
                           "shared-to-modified ownership requests",
                           [this] { return coherenceStats.upgrades; });
        registry.addScalar(cname("interventions"),
                           "snoops answered by a dirty peer",
                           [this] {
                               return coherenceStats.interventions;
                           });
        registry.addScalar(cname("writebacks"),
                           "snoop-forced flushes to the L2",
                           [this] {
                               return coherenceStats.writebacks;
                           });
        registry.addScalar(cname("upgradeCycles"),
                           "bus cycles spent on upgrades",
                           [this] {
                               return coherenceStats.upgradeCycles;
                           });
        registry.addScalar(cname("interventionCycles"),
                           "cycles flushing dirty peer copies",
                           [this] {
                               return coherenceStats
                                   .interventionCycles;
                           });
        registry.addScalar(cname("busBusyCycles"),
                           "total cycles the bus was held",
                           [this] {
                               return coherenceStats.busBusyCycles;
                           });

        std::string cls = root + ".missclass";
        registry.addScalar(cls + ".compulsory",
                           "first-touch misses",
                           [this] { return missClasses.compulsory; });
        registry.addScalar(cls + ".capacity",
                           "misses a fully-associative equal-size "
                           "cache also takes",
                           [this] { return missClasses.capacity; });
        registry.addScalar(cls + ".conflict",
                           "placement-induced misses",
                           [this] { return missClasses.conflict; });
        registry.addScalar(cls + ".coherence",
                           "first re-touches after a peer "
                           "invalidation",
                           [this] { return missClasses.coherence; });

        for (std::size_t c = 0; c < coreDcache.size(); ++c) {
            std::string core =
                root + ".core" + std::to_string(c);
            if (c < coreIcache.size())
                coreIcache[c].regStats(registry, core + ".l1i");
            coreDcache[c].regStats(registry, core + ".l1d");
        }
    }
}

} // namespace cachetime
