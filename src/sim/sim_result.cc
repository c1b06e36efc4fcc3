#include "sim/sim_result.hh"

#include <initializer_list>
#include <string_view>
#include <type_traits>

#include "stats/interval.hh"
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

/**
 * Register the listed counters of @p s under @p prefix, integers as
 * scalars and histograms as histograms, read through references into
 * @p s.  @p order, when given, names every listed counter once, in
 * the order to register them.
 */
template <typename Stats>
void
regCounters(stats::Registry &registry, const std::string &prefix,
            const Stats &s,
            std::initializer_list<std::string_view> order = {})
{
    auto reg = [&](const char *name, const char *desc, auto field,
                   auto...) {
        const auto &value = s.*field;
        if constexpr (std::is_same_v<
                          std::remove_cvref_t<decltype(value)>,
                          Histogram>)
            registry.addHistogram(prefix + "." + name, desc, &value);
        else
            registry.addScalar(prefix + "." + name, desc,
                               [&value] { return value; });
    };
    if (order.size() == 0)
        Stats::forEachCounter(reg);
    for (std::string_view want : order)
        Stats::forEachCounter([&](const char *name, auto... rest) {
            if (name == want)
                reg(name, rest...);
        });
}

/** A cache's counters, then its two miss ratios. */
void
regCache(stats::Registry &registry, const std::string &prefix,
         const CacheStats &c)
{
    regCounters(registry, prefix, c);
    registry.addFormula(prefix + ".readMissRatio",
                        "read misses / read accesses",
                        [&c] { return c.readMissRatio(); });
    registry.addFormula(prefix + ".writeMissRatio",
                        "write misses / write accesses",
                        [&c] { return c.writeMissRatio(); });
}

/**
 * A write buffer's counters, fullStalls before readMatchStallCycles:
 * the digests in perfbench/pins.txt hash the dump in this order.
 */
void
regBuffer(stats::Registry &registry, const std::string &prefix,
          const WriteBufferStats &b)
{
    regCounters(registry, prefix, b,
                {"enqueued", "wordsEnqueued", "coalesced", "retired",
                 "readMatches", "fullStalls", "readMatchStallCycles",
                 "fullStallCycles", "maxOccupancy", "occupancy"});
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

    regCache(registry, root + ".l1i", icache);
    regCache(registry, root + ".l1d", dcache);
    regBuffer(registry, root + ".l1wbuf", l1Buffer);
    for (std::size_t i = 0; i < midLevels.size(); ++i) {
        std::string level = root + ".l" + std::to_string(i + 2);
        regCache(registry, level, midLevels[i]);
        if (i < midBuffers.size())
            regBuffer(registry, level + "wbuf", midBuffers[i]);
    }
    regCounters(registry, root + ".mem", memory);
    if (physical) {
        regCounters(registry, root + ".tlb", tlb);
        registry.addFormula(root + ".tlb.missRatio",
                            "misses / translations",
                            [this] { return tlb.missRatio(); });
    }

    if (coherent) {
        registry.addScalar(name("cores"), "simulated cores",
                           [this] { return cores; });
        regCounters(registry, root + ".coh", coherenceStats);
        regCounters(registry, root + ".missclass", missClasses);
        for (std::size_t c = 0; c < coreDcache.size(); ++c) {
            std::string core = root + ".core" + std::to_string(c);
            if (c < coreIcache.size())
                regCache(registry, core + ".l1i", coreIcache[c]);
            regCache(registry, core + ".l1d", coreDcache[c]);
        }
    }
}

IntervalCounters
SimResult::intervalCounters() const
{
    IntervalCounters c;
    c.refs = refs;
    c.readRefs = readRefs;
    c.writeRefs = writeRefs;
    c.groups = groups;
    c.cycles = static_cast<std::uint64_t>(cycles);
    c.ifetchAccesses = icache.readAccesses;
    c.ifetchMisses = icache.readMisses;
    c.readAccesses = dcache.readAccesses;
    c.readMisses = dcache.readMisses;
    c.writeAccesses = dcache.writeAccesses;
    c.writeMisses = dcache.writeMisses;
    c.wbufEnqueued = l1Buffer.enqueued;
    c.wbufFullStalls = l1Buffer.fullStalls;
    c.wbufOccupancyCount = l1Buffer.occupancy.count();
    c.wbufOccupancySum = l1Buffer.occupancy.sum();
    c.tlbAccesses = tlb.accesses;
    c.tlbMisses = tlb.misses;
    c.memReads = memory.reads;
    c.memWrites = memory.writes;
    c.cohInvalidations = coherenceStats.invalidations;
    c.cohUpgrades = coherenceStats.upgrades;
    c.cohBusBusyCycles =
        static_cast<std::uint64_t>(coherenceStats.busBusyCycles);
    return c;
}

} // namespace cachetime
