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
    field(const std::string &name, const Histogram &lhs,
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

    /** Every listed counter of one stats struct, in list order. */
    template <typename Stats>
    void
    counters(const std::string &name, const Stats &lhs,
             const Stats &rhs)
    {
        Stats::forEachCounter([&](const char *leaf, const char *,
                                  auto member, auto...) {
            field(name + "." + leaf, lhs.*member, rhs.*member);
        });
    }

    /**
     * The sizes of two vectors of stats structs, then each pair they
     * share, the i-th named @p name(i).
     */
    template <typename Stats, typename Name>
    void
    each(const char *what, const std::vector<Stats> &lhs,
         const std::vector<Stats> &rhs, Name &&name)
    {
        field(std::string(what) + ".size", lhs.size(), rhs.size());
        for (std::size_t i = 0; i < std::min(lhs.size(), rhs.size()); ++i)
            counters(name(i), lhs[i], rhs[i]);
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

    d.counters("icache", a.icache, b.icache);
    d.counters("dcache", a.dcache, b.dcache);
    auto level = [](std::size_t i) {
        // Appended piece by piece: in Release builds GCC 12's
        // -Wrestrict misfires on a string literal + std::string.
        std::string name = "L";
        name += std::to_string(i + 2);
        return name;
    };
    d.each("midLevels", a.midLevels, b.midLevels, level);
    d.each("midBuffers", a.midBuffers, b.midBuffers,
           [&](std::size_t i) { return level(i) + "wbuf"; });
    d.counters("l1wbuf", a.l1Buffer, b.l1Buffer);
    d.counters("mem", a.memory, b.memory);

    d.field("physical", a.physical, b.physical);
    d.counters("tlb", a.tlb, b.tlb);

    d.field("missPenaltyCycles", a.missPenaltyCycles,
            b.missPenaltyCycles);
    d.field("stallReadCycles", a.stallReadCycles,
            b.stallReadCycles);
    d.field("stallWriteCycles", a.stallWriteCycles,
            b.stallWriteCycles);
    d.field("stallTlbCycles", a.stallTlbCycles, b.stallTlbCycles);

    d.field("cores", a.cores, b.cores);
    d.field("coherent", a.coherent, b.coherent);
    auto core = [](std::size_t i, const char *side) {
        return "core" + std::to_string(i) + side;
    };
    d.each("coreIcache", a.coreIcache, b.coreIcache,
           [&](std::size_t i) { return core(i, ".l1i"); });
    d.each("coreDcache", a.coreDcache, b.coreDcache,
           [&](std::size_t i) { return core(i, ".l1d"); });
    d.counters("coh", a.coherenceStats, b.coherenceStats);
    d.counters("missclass", a.missClasses, b.missClasses);
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
