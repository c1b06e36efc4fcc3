/**
 * @file
 * Extension: the 3C decomposition of the miss ratio.
 *
 * Quantifies the mechanism behind Figure 4-1: how much of each
 * configuration's miss ratio is compulsory, capacity, or conflict,
 * and how the conflict share responds to set associativity.  In a
 * virtual cache the conflict component contains the inter-process
 * collisions that more sets cannot remove.
 */

#include "bench/common.hh"
#include "cache/miss_classify.hh"
#include "core/experiment.hh"
#include "stats/telemetry.hh"
#include "util/parallel.hh"

using namespace cachetime;
using namespace cachetime::bench;

namespace
{

/** One L1 shape of the table: both caches get it. */
struct Shape
{
    std::uint64_t wordsEach;
    unsigned assoc;
};

/** Warm-start reads, their misses and the misses' classes. */
struct Counts
{
    std::uint64_t reads = 0;
    std::uint64_t misses = 0;
    MissClassStats classes;
};

/** @p shape's split L1 over @p trace, each read classified. */
Counts
classify(const SystemConfig &base, const Shape &shape, const Trace &trace)
{
    CacheConfig icfg = base.icache, dcfg = base.dcache;
    icfg.sizeWords = shape.wordsEach;
    dcfg.sizeWords = shape.wordsEach;
    icfg.assoc = shape.assoc;
    dcfg.assoc = shape.assoc;

    Counts counts;
    Cache icache(icfg, "I"), dcache(dcfg, "D");
    MissClassifier imc(shape.wordsEach / icfg.blockWords, icfg.blockWords);
    MissClassifier dmc(shape.wordsEach / dcfg.blockWords, dcfg.blockWords);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Ref &ref = trace.refs()[i];
        bool warm = i >= trace.warmStart();
        if (ref.kind == RefKind::Store) {
            dcache.write(ref.addr, 1, ref.pid);
            continue;
        }
        Cache &cache = ref.kind == RefKind::IFetch ? icache : dcache;
        MissClassifier &mc = ref.kind == RefKind::IFetch ? imc : dmc;
        MissClass cls = mc.observe(ref.addr, ref.pid);
        bool hit = cache.read(ref.addr, 1, ref.pid).hit;
        if (warm) {
            ++counts.reads;
            if (!hit) {
                ++counts.misses;
                mc.account(cls);
            }
        }
    }
    counts.classes.merge(imc.stats());
    counts.classes.merge(dmc.stats());
    return counts;
}

} // namespace

int
main()
{
    auto traces = standardTraces();
    SystemConfig base = SystemConfig::paperDefault();

    std::vector<Shape> shapes;
    for (std::uint64_t words_each : {1024u, 4096u, 16384u, 65536u})
        for (unsigned assoc : {1u, 2u, 8u})
            shapes.push_back({words_each, assoc});

    // Every (shape, trace) run on the pool at once.
    const std::size_t T = traces.size();
    std::vector<Counts> runs;
    {
        telemetry::Span stage("simulate");
        runs = parallelMap<Counts>(
            shapes.size() * T, [&](std::size_t task) {
                return classify(base, shapes[task / T], traces[task % T]);
            });
    }

    TablePrinter table({"total L1", "assoc", "read miss",
                        "compulsory", "capacity", "conflict"});
    for (std::size_t s = 0; s < shapes.size(); ++s) {
        Counts sum;
        for (std::size_t t = 0; t < T; ++t) {
            const Counts &run = runs[s * T + t];
            sum.reads += run.reads;
            sum.misses += run.misses;
            sum.classes.merge(run.classes);
        }
        double total = static_cast<double>(sum.classes.total());
        auto share = [&](std::uint64_t n) {
            return total == 0
                       ? std::string("-")
                       : TablePrinter::fmt(100.0 * n / total, 1) + "%";
        };
        table.addRow(
            {TablePrinter::fmtSizeWords(2 * shapes[s].wordsEach),
             std::to_string(shapes[s].assoc),
             TablePrinter::fmt(
                 static_cast<double>(sum.misses) / sum.reads, 4),
             share(sum.classes.compulsory), share(sum.classes.capacity),
             share(sum.classes.conflict)});
    }
    emit(table, "Extension: 3C miss decomposition (warm-start "
                "reads, both L1 caches)");
    std::cout << "associativity attacks exactly the conflict "
                 "column; what remains above 256KB\nis the "
                 "virtual-cache inter-process component\n";
    return 0;
}
