#include "verify/diff.hh"

#include <sstream>

namespace cachetime
{
namespace verify
{
namespace
{

struct Differ
{
    std::vector<FieldDiff> diffs;

    template <typename T>
    void
    field(const std::string &name, const T &lhs, const T &rhs)
    {
        if (lhs == rhs)
            return;
        std::ostringstream l, r;
        l << lhs;
        r << rhs;
        diffs.push_back({name, l.str(), r.str()});
    }

    void
    histogram(const std::string &name, const Histogram &lhs,
              const Histogram &rhs)
    {
        field(name + ".count", lhs.count(), rhs.count());
        field(name + ".overflow", lhs.overflow(), rhs.overflow());
        field(name + ".max", lhs.max(), rhs.max());
        std::size_t bins = std::min(lhs.bins(), rhs.bins());
        field(name + ".bins", lhs.bins(), rhs.bins());
        for (std::size_t i = 0; i < bins; ++i) {
            field(name + ".bin" + std::to_string(i), lhs.bin(i),
                  rhs.bin(i));
        }
    }

    void
    cache(const std::string &name, const CacheStats &lhs,
          const CacheStats &rhs)
    {
        field(name + ".readAccesses", lhs.readAccesses,
              rhs.readAccesses);
        field(name + ".readMisses", lhs.readMisses, rhs.readMisses);
        field(name + ".writeAccesses", lhs.writeAccesses,
              rhs.writeAccesses);
        field(name + ".writeMisses", lhs.writeMisses,
              rhs.writeMisses);
        field(name + ".subBlockMisses", lhs.subBlockMisses,
              rhs.subBlockMisses);
        field(name + ".fills", lhs.fills, rhs.fills);
        field(name + ".wordsFetched", lhs.wordsFetched,
              rhs.wordsFetched);
        field(name + ".blocksReplaced", lhs.blocksReplaced,
              rhs.blocksReplaced);
        field(name + ".dirtyBlocksReplaced", lhs.dirtyBlocksReplaced,
              rhs.dirtyBlocksReplaced);
        field(name + ".dirtyWordsReplaced", lhs.dirtyWordsReplaced,
              rhs.dirtyWordsReplaced);
        field(name + ".wordsWrittenThrough",
              lhs.wordsWrittenThrough, rhs.wordsWrittenThrough);
        field(name + ".prefetches", lhs.prefetches, rhs.prefetches);
        field(name + ".prefetchHits", lhs.prefetchHits,
              rhs.prefetchHits);
        field(name + ".victimHits", lhs.victimHits, rhs.victimHits);
    }

    void
    buffer(const std::string &name, const WriteBufferStats &lhs,
           const WriteBufferStats &rhs)
    {
        field(name + ".enqueued", lhs.enqueued, rhs.enqueued);
        field(name + ".wordsEnqueued", lhs.wordsEnqueued,
              rhs.wordsEnqueued);
        field(name + ".coalesced", lhs.coalesced, rhs.coalesced);
        field(name + ".retired", lhs.retired, rhs.retired);
        field(name + ".readMatches", lhs.readMatches,
              rhs.readMatches);
        field(name + ".readMatchStallCycles",
              lhs.readMatchStallCycles, rhs.readMatchStallCycles);
        field(name + ".fullStalls", lhs.fullStalls, rhs.fullStalls);
        field(name + ".fullStallCycles", lhs.fullStallCycles,
              rhs.fullStallCycles);
        field(name + ".maxOccupancy", lhs.maxOccupancy,
              rhs.maxOccupancy);
        histogram(name + ".occupancy", lhs.occupancy, rhs.occupancy);
    }

    void
    memory(const std::string &name, const MainMemoryStats &lhs,
           const MainMemoryStats &rhs)
    {
        field(name + ".reads", lhs.reads, rhs.reads);
        field(name + ".writes", lhs.writes, rhs.writes);
        field(name + ".wordsRead", lhs.wordsRead, rhs.wordsRead);
        field(name + ".wordsWritten", lhs.wordsWritten,
              rhs.wordsWritten);
        field(name + ".busyCycles", lhs.busyCycles, rhs.busyCycles);
        field(name + ".readWaitCycles", lhs.readWaitCycles,
              rhs.readWaitCycles);
    }
};

} // namespace

std::vector<FieldDiff>
diffResults(const SimResult &a, const SimResult &b)
{
    Differ d;
    d.field("refs", a.refs, b.refs);
    d.field("readRefs", a.readRefs, b.readRefs);
    d.field("writeRefs", a.writeRefs, b.writeRefs);
    d.field("groups", a.groups, b.groups);
    d.field("cycles", a.cycles, b.cycles);

    d.cache("icache", a.icache, b.icache);
    d.cache("dcache", a.dcache, b.dcache);

    d.field("midLevels.size", a.midLevels.size(),
            b.midLevels.size());
    std::size_t levels = std::min(a.midLevels.size(),
                                  b.midLevels.size());
    for (std::size_t i = 0; i < levels; ++i) {
        std::string name = "L";
        name += std::to_string(i + 2);
        d.cache(name, a.midLevels[i], b.midLevels[i]);
    }
    std::size_t buffers = std::min(a.midBuffers.size(),
                                   b.midBuffers.size());
    d.field("midBuffers.size", a.midBuffers.size(),
            b.midBuffers.size());
    for (std::size_t i = 0; i < buffers; ++i) {
        std::string name = "L";
        name += std::to_string(i + 2);
        name += "wbuf";
        d.buffer(name, a.midBuffers[i], b.midBuffers[i]);
    }

    d.buffer("l1wbuf", a.l1Buffer, b.l1Buffer);
    d.memory("mem", a.memory, b.memory);

    d.field("physical", a.physical, b.physical);
    d.field("tlb.accesses", a.tlb.accesses, b.tlb.accesses);
    d.field("tlb.misses", a.tlb.misses, b.tlb.misses);

    d.histogram("missPenaltyCycles", a.missPenaltyCycles,
                b.missPenaltyCycles);
    d.field("stallReadCycles", a.stallReadCycles,
            b.stallReadCycles);
    d.field("stallWriteCycles", a.stallWriteCycles,
            b.stallWriteCycles);
    d.field("stallTlbCycles", a.stallTlbCycles, b.stallTlbCycles);

    d.field("cores", a.cores, b.cores);
    d.field("coherent", a.coherent, b.coherent);
    d.field("coreIcache.size", a.coreIcache.size(),
            b.coreIcache.size());
    std::size_t icores = std::min(a.coreIcache.size(),
                                  b.coreIcache.size());
    for (std::size_t i = 0; i < icores; ++i)
        d.cache("core" + std::to_string(i) + ".l1i",
                a.coreIcache[i], b.coreIcache[i]);
    d.field("coreDcache.size", a.coreDcache.size(),
            b.coreDcache.size());
    std::size_t dcores = std::min(a.coreDcache.size(),
                                  b.coreDcache.size());
    for (std::size_t i = 0; i < dcores; ++i)
        d.cache("core" + std::to_string(i) + ".l1d",
                a.coreDcache[i], b.coreDcache[i]);

    const CoherenceStats &ca = a.coherenceStats;
    const CoherenceStats &cb = b.coherenceStats;
    d.field("coh.busTransactions", ca.busTransactions,
            cb.busTransactions);
    d.field("coh.snoops", ca.snoops, cb.snoops);
    d.field("coh.invalidations", ca.invalidations,
            cb.invalidations);
    d.field("coh.upgrades", ca.upgrades, cb.upgrades);
    d.field("coh.interventions", ca.interventions,
            cb.interventions);
    d.field("coh.writebacks", ca.writebacks, cb.writebacks);
    d.field("coh.upgradeCycles", ca.upgradeCycles,
            cb.upgradeCycles);
    d.field("coh.interventionCycles", ca.interventionCycles,
            cb.interventionCycles);
    d.field("coh.busBusyCycles", ca.busBusyCycles,
            cb.busBusyCycles);

    d.field("missclass.compulsory", a.missClasses.compulsory,
            b.missClasses.compulsory);
    d.field("missclass.capacity", a.missClasses.capacity,
            b.missClasses.capacity);
    d.field("missclass.conflict", a.missClasses.conflict,
            b.missClasses.conflict);
    d.field("missclass.coherence", a.missClasses.coherence,
            b.missClasses.coherence);
    return d.diffs;
}

std::string
formatDiffs(const std::vector<FieldDiff> &diffs)
{
    std::ostringstream out;
    for (const FieldDiff &diff : diffs) {
        out << "  " << diff.field << ": fast=" << diff.lhs
            << " oracle=" << diff.rhs << "\n";
    }
    return out.str();
}

} // namespace verify
} // namespace cachetime
