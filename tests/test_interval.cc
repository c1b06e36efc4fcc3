/**
 * @file
 * Tests for the interval (windowed) statistics engine: exact
 * window-sum accounting, bit-identity of instrumented runs, records
 * independent of how the stream is fed, warm-up visibility, and
 * well-formed CSV/JSON dumps.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <tuple>

#include "fill_only_source.hh"
#include "json_check.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "stats/interval.hh"
#include "trace/trace_io.hh"
#include "trace/trace_v2.hh"
#include "trace/workloads.hh"
#include "verify/diff.hh"

using namespace cachetime;

namespace
{

Trace
workload(std::size_t refs, std::uint64_t seed = 17)
{
    WorkloadSpec spec;
    spec.name = "interval_test_" + std::to_string(seed);
    spec.lengthRefs = refs;
    spec.seed = seed;
    return generate(spec);
}

/** Field-wise sum of every window of @p trace_name (all if empty). */
IntervalCounters
sumWindows(const IntervalCollector &collector,
           const std::string &trace_name = "")
{
    IntervalCounters sum;
    for (const IntervalRecord &record : collector.records())
        if (trace_name.empty() || record.trace == trace_name)
            sum.add(record.c);
    return sum;
}

/** Every simulated field of @p r: all but its host wall time. */
auto
simulatedFields(const IntervalRecord &r)
{
    const IntervalCounters &c = r.c;
    return std::make_tuple(
        r.trace, r.index, r.beginRef, r.endRef, r.final, c.refs,
        c.readRefs, c.writeRefs, c.groups, c.cycles, c.ifetchAccesses,
        c.ifetchMisses, c.readAccesses, c.readMisses, c.writeAccesses,
        c.writeMisses, c.wbufEnqueued, c.wbufFullStalls,
        c.wbufOccupancyCount, c.wbufOccupancySum, c.tlbAccesses,
        c.tlbMisses, c.memReads, c.memWrites);
}

} // namespace

TEST(IntervalStats, RecordsIndependentOfFeedPartition)
{
    // A paired-issue stream over several feeder spans, with a
    // couplet at each nominal span cut: the resident feed slides
    // those cuts one reference late, the filled feeds hold their
    // trailing IFetch back, so the three partitions differ.
    const std::string name = "interval_feeds";
    Trace base = workload(3 * refChunkSize + 500, 29);
    std::vector<Ref> refs = base.refs();
    for (std::size_t cut = refChunkSize; cut < refs.size();
         cut += refChunkSize) {
        refs[cut - 1].kind = RefKind::IFetch;
        refs[cut].kind = RefKind::Load;
    }
    Trace trace(name, refs, 1000);

    // Window boundaries inside couplets, about every 1500 refs: every
    // one must slide one reference.  None sits on a nominal span
    // cut, where a window cut would hide how each feed cuts.
    std::vector<std::uint64_t> bounds;
    for (std::size_t p = 1; p < refs.size(); ++p) {
        bool couplet = refs[p - 1].kind == RefKind::IFetch &&
                       isData(refs[p].kind);
        std::uint64_t last = bounds.empty() ? 0 : bounds.back();
        if (couplet && p >= last + 1500 && p % refChunkSize != 0)
            bounds.push_back(p);
    }
    ASSERT_GT(bounds.size(), 30u);

    SystemConfig config = SystemConfig::paperDefault();
    ASSERT_TRUE(config.split && config.cpu.pairIssue);
    auto records = [&](RefSource &source) {
        IntervalCollector collector(bounds);
        System system(config);
        system.setIntervalCollector(&collector);
        system.run(source);
        std::vector<decltype(simulatedFields(IntervalRecord{}))> out;
        for (const IntervalRecord &r : collector.records())
            out.push_back(simulatedFields(r));
        return out;
    };

    TraceRefSource resident(trace);
    auto want = records(resident);
    ASSERT_EQ(want.size(), bounds.size() + 1);

    FillOnlySource filled(trace);
    EXPECT_TRUE(records(filled) == want);

    const std::string path =
        (std::filesystem::temp_directory_path() / (name + ".v2"))
            .string();
    writeV2(trace, path);
    {
        V2FileSource file(path);
        EXPECT_TRUE(records(file) == want);
    }
    std::remove(path.c_str());

    const std::string text_path =
        (std::filesystem::temp_directory_path() / (name + ".txt"))
            .string();
    saveFile(trace, text_path);
    EXPECT_TRUE(records(*openRefSource(text_path)) == want);
    std::remove(text_path.c_str());
}

TEST(IntervalStats, WindowsSumExactlyToAggregate)
{
    SystemConfig config = SystemConfig::paperDefault();
    Trace trace = workload(30000);
    IntervalCollector collector(1000);
    System system(config);
    system.setIntervalCollector(&collector);
    SimResult r = system.run(trace);

    ASSERT_GT(collector.records().size(), 10u);
    IntervalCounters sum = sumWindows(collector);
    EXPECT_EQ(sum.refs, r.refs);
    EXPECT_EQ(sum.readRefs, r.readRefs);
    EXPECT_EQ(sum.writeRefs, r.writeRefs);
    EXPECT_EQ(sum.groups, r.groups);
    EXPECT_EQ(sum.cycles, static_cast<std::uint64_t>(r.cycles));
    EXPECT_EQ(sum.ifetchAccesses, r.icache.readAccesses);
    EXPECT_EQ(sum.ifetchMisses, r.icache.readMisses);
    EXPECT_EQ(sum.readAccesses, r.dcache.readAccesses);
    EXPECT_EQ(sum.readMisses, r.dcache.readMisses);
    EXPECT_EQ(sum.writeAccesses, r.dcache.writeAccesses);
    EXPECT_EQ(sum.writeMisses, r.dcache.writeMisses);
    EXPECT_EQ(sum.wbufEnqueued, r.l1Buffer.enqueued);
    EXPECT_EQ(sum.wbufFullStalls, r.l1Buffer.fullStalls);
    EXPECT_EQ(sum.wbufOccupancyCount, r.l1Buffer.occupancy.count());
    EXPECT_DOUBLE_EQ(sum.wbufOccupancySum,
                     r.l1Buffer.occupancy.sum());
    EXPECT_EQ(sum.memReads, r.memory.reads);
    EXPECT_EQ(sum.memWrites, r.memory.writes);
}

TEST(IntervalStats, EveryEngineWindowsSumToItsResult)
{
    // Processes on different cores share a segment, so every coherent
    // machine invalidates; the warm-up shows as zero windows.
    WorkloadSpec spec;
    spec.name = "interval_engines";
    spec.processes = 4;
    spec.lengthRefs = 30000;
    spec.warmStartRefs = 4000;
    spec.seed = 7;
    spec.sharedFraction = 0.3;
    const Trace trace = generate(spec);

    const SystemConfig base = SystemConfig::paperDefault();
    std::vector<std::pair<std::string, SystemConfig>> machines;
    machines.emplace_back("split", base);
    SystemConfig unified = base;
    unified.split = false;
    unified.cpu.pairIssue = false;
    machines.emplace_back("unified, no pair issue", unified);
    SystemConfig physical = base;
    physical.addressing = AddressMode::Physical;
    physical.tlb.entries = 4;
    physical.tlb.assoc = 4;
    machines.emplace_back("physical, 4-entry TLB", physical);
    SystemConfig l2 = base;
    l2.hasL2 = true;
    machines.emplace_back("L2", l2);
    for (CoherenceProtocol protocol :
         {CoherenceProtocol::VI, CoherenceProtocol::MSI,
          CoherenceProtocol::MESI}) {
        for (unsigned cores : {2u, 4u}) {
            SystemConfig coherent = base;
            coherent.cores = cores;
            coherent.protocol = protocol;
            coherent.applyCoherenceDefaults();
            machines.emplace_back(std::string(coherenceProtocolName(
                                      protocol)) +
                                      " x" + std::to_string(cores),
                                  coherent);
        }
    }

    for (const auto &[name, config] : machines) {
        SCOPED_TRACE(name);
        IntervalCollector collector(997);
        std::unique_ptr<Simulator> machine = makeSimulator(config);
        machine->setIntervalCollector(&collector);
        const SimResult r = machine->run(trace);
        const std::vector<IntervalRecord> &records = collector.records();
        ASSERT_GT(records.size(), 25u);
        const IntervalCounters want = r.intervalCounters();
        EXPECT_TRUE(sumWindows(collector) == want);
        // A snapshot is the result so far: two measured windows'
        // cumulative counters against the result of a run cut where
        // the window ends.
        std::size_t first = 0;
        while (records[first].endRef <= trace.warmStart())
            ++first;
        const std::size_t measured = records.size() - first;
        IntervalCounters cumulative;
        for (std::size_t k = 0; k < records.size(); ++k) {
            cumulative.add(records[k].c);
            if (k != first + measured / 3 && k != first + 2 * measured / 3)
                continue;
            ASSERT_GT(cumulative.refs, 0u);
            Trace cut(trace.name(),
                      {trace.refs().begin(),
                       trace.refs().begin() +
                           static_cast<std::ptrdiff_t>(records[k].endRef)},
                      trace.warmStart());
            EXPECT_TRUE(makeSimulator(config)->run(cut).intervalCounters() ==
                        cumulative)
                << "window " << k;
        }
        EXPECT_GT(want.readMisses, 0u);
        EXPECT_EQ(want.ifetchAccesses > 0, config.split);
        EXPECT_EQ(want.tlbMisses > 0, physical.addressing ==
                                          config.addressing);
        if (config.coherent()) {
            EXPECT_GT(want.cohInvalidations, 0u);
            EXPECT_GT(want.cohBusBusyCycles, 0u);
        } else {
            EXPECT_GT(want.wbufEnqueued, 0u);
        }
    }
}

TEST(IntervalStats, WindowsPartitionTheStream)
{
    Trace trace = workload(10000);
    IntervalCollector collector(512);
    System system(SystemConfig::paperDefault());
    system.setIntervalCollector(&collector);
    system.run(trace);

    const std::vector<IntervalRecord> &records = collector.records();
    ASSERT_FALSE(records.empty());
    EXPECT_EQ(records.front().beginRef, 0u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        const IntervalRecord &record = records[i];
        EXPECT_EQ(record.index, i);
        EXPECT_LT(record.beginRef, record.endRef);
        if (i) {
            EXPECT_EQ(record.beginRef, records[i - 1].endRef);
        }
        // A window may run one reference long when the cut slid
        // past a couplet's data reference.
        if (!record.final) {
            EXPECT_LE(record.endRef - record.beginRef, 513u);
        }
        EXPECT_EQ(record.final, i + 1 == records.size());
    }
    EXPECT_EQ(records.back().endRef, trace.size());
}

TEST(IntervalStats, AttachingCollectorIsBitIdentical)
{
    SystemConfig config = SystemConfig::paperDefault();
    Trace trace = workload(20000, 23);

    SimResult plain = System(config).run(trace);

    // A window co-prime with the chunk size, so cuts land anywhere.
    IntervalCollector collector(997);
    System instrumented(config);
    instrumented.setIntervalCollector(&collector);
    SimResult with = instrumented.run(trace);

    std::vector<verify::FieldDiff> diffs =
        verify::diffResults(plain, with);
    EXPECT_TRUE(diffs.empty()) << verify::formatDiffs(diffs);
}

TEST(IntervalStats, WarmupShowsAsZeroMeasuredWindows)
{
    Trace trace = workload(8000);
    Trace warm(trace.name(), trace.refs(), 4000);
    IntervalCollector collector(1000);
    System system(SystemConfig::paperDefault());
    system.setIntervalCollector(&collector);
    SimResult r = system.run(warm);

    const std::vector<IntervalRecord> &records = collector.records();
    ASSERT_GE(records.size(), 8u);
    // Windows inside the warm-up prefix issued references but
    // measured nothing; the measured tail sums to the aggregate.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(records[i].c.refs, 0u) << i;
        EXPECT_EQ(records[i].c.cycles, 0u) << i;
    }
    EXPECT_GT(records[5].c.refs, 0u);
    EXPECT_EQ(sumWindows(collector).refs, r.refs);
}

TEST(IntervalStats, CollectorServesConsecutiveRuns)
{
    Trace a = workload(5000, 1);
    Trace b = workload(7000, 2);
    IntervalCollector collector(2048);
    System system(SystemConfig::paperDefault());
    system.setIntervalCollector(&collector);
    SimResult ra = system.run(a);
    SimResult rb = system.run(b);

    EXPECT_EQ(sumWindows(collector, a.name()).refs, ra.refs);
    EXPECT_EQ(sumWindows(collector, b.name()).refs, rb.refs);
    // Window ordinals restart per run.
    std::size_t firsts = 0;
    for (const IntervalRecord &record : collector.records())
        firsts += record.index == 0;
    EXPECT_EQ(firsts, 2u);
}

TEST(IntervalStats, DumpsAreWellFormed)
{
    Trace trace = workload(6000);
    IntervalCollector collector(1024);
    System system(SystemConfig::paperDefault());
    system.setIntervalCollector(&collector);
    system.run(trace);

    std::ostringstream csv;
    collector.dumpCsv(csv);
    std::string text = csv.str();
    EXPECT_NE(text.find("trace,window,begin_ref"), std::string::npos);
    std::size_t rows = 0;
    for (char c : text)
        rows += c == '\n';
    EXPECT_EQ(rows, collector.records().size() + 1); // + header

    json_check::JsonValue doc;
    std::string error;
    ASSERT_TRUE(json_check::parseJson(collector.json(), &doc, &error))
        << error;
    ASSERT_TRUE(doc.isArray());
    ASSERT_EQ(doc.items.size(), collector.records().size());
    const json_check::JsonValue &first = doc.items.front();
    for (const char *key :
         {"window", "begin_ref", "end_ref", "refs", "cycles", "cpi",
          "read_miss_ratio", "ifetch_miss_ratio", "write_miss_ratio",
          "wbuf_mean_occupancy", "tlb_misses", "refs_per_sec"}) {
        ASSERT_NE(first.find(key), nullptr) << key;
    }
    EXPECT_EQ(first.find("trace")->text, trace.name());

    collector.clear();
    EXPECT_TRUE(collector.records().empty());
}

// --- boundary schedules and partial-window flagging ----------------

TEST(IntervalStats, FirstBoundaryAfterFixedMode)
{
    IntervalCollector collector(1000);
    EXPECT_EQ(collector.firstBoundaryAfter(0), 1000u);
    EXPECT_EQ(collector.firstBoundaryAfter(999), 1000u);
    // Strictly after: standing on a boundary yields the next one.
    EXPECT_EQ(collector.firstBoundaryAfter(1000), 2000u);
    EXPECT_EQ(collector.firstBoundaryAfter(2500), 3000u);
}

TEST(IntervalStats, FirstBoundaryAfterExplicitMode)
{
    IntervalCollector collector(
        std::vector<std::uint64_t>{100, 250, 600});
    EXPECT_EQ(collector.windowRefs(), 0u);
    EXPECT_EQ(collector.firstBoundaryAfter(0), 100u);
    EXPECT_EQ(collector.firstBoundaryAfter(99), 100u);
    EXPECT_EQ(collector.firstBoundaryAfter(100), 250u);
    EXPECT_EQ(collector.firstBoundaryAfter(599), 600u);
    EXPECT_EQ(collector.firstBoundaryAfter(600),
              IntervalCollector::kNoBoundary);
}

TEST(IntervalStats, BadSchedulesDie)
{
    EXPECT_DEATH(IntervalCollector(std::uint64_t{0}), "nonzero");
    EXPECT_DEATH(
        IntervalCollector(std::vector<std::uint64_t>{100, 100}),
        "strictly increasing");
    EXPECT_DEATH(
        IntervalCollector(std::vector<std::uint64_t>{200, 100}),
        "strictly increasing");
}

TEST(IntervalStats, EndRunFlagsOnlyTrailingPartialWindow)
{
    // Drive the hooks directly so the layout is exact.  A run that
    // issues past the last boundary gets a trailing window flagged
    // final...
    IntervalCollector partial(100);
    partial.beginRun("t");
    IntervalCounters cum;
    cum.refs = 100;
    cum.cycles = 500;
    partial.atBoundary(100, cum);
    IntervalCounters cum2 = cum;
    cum2.refs = 150;
    cum2.cycles = 900;
    partial.endRun(150, cum2);
    ASSERT_EQ(partial.records().size(), 2u);
    EXPECT_FALSE(partial.records()[0].final);
    EXPECT_TRUE(partial.records()[1].final);
    EXPECT_EQ(partial.records()[1].beginRef, 100u);
    EXPECT_EQ(partial.records()[1].endRef, 150u);
    EXPECT_EQ(partial.records()[1].c.refs, 50u);
    EXPECT_EQ(partial.records()[1].c.cycles, 400u);

    // ...a run ending exactly on a boundary has nothing open, so no
    // final record is emitted...
    IntervalCollector exact(100);
    exact.beginRun("t");
    exact.atBoundary(100, cum);
    exact.endRun(100, cum);
    ASSERT_EQ(exact.records().size(), 1u);
    EXPECT_FALSE(exact.records()[0].final);

    // ...and a run shorter than one window still reports its single
    // (final) window, even with zero references.
    IntervalCollector tiny(100);
    tiny.beginRun("t");
    IntervalCounters few;
    few.refs = 7;
    tiny.endRun(7, few);
    ASSERT_EQ(tiny.records().size(), 1u);
    EXPECT_TRUE(tiny.records()[0].final);
    EXPECT_EQ(tiny.records()[0].c.refs, 7u);
}

TEST(IntervalStats, ExplicitScheduleWindowsEndAtBoundaries)
{
    Trace trace = workload(1000);
    IntervalCollector collector(
        std::vector<std::uint64_t>{100, 250, 600});
    System system(SystemConfig::paperDefault());
    system.setIntervalCollector(&collector);
    SimResult r = system.run(trace);

    const std::vector<IntervalRecord> &records = collector.records();
    ASSERT_EQ(records.size(), 4u);
    const std::uint64_t wanted[] = {100, 250, 600};
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_FALSE(records[i].final);
        // A boundary may slide one reference to keep a couplet whole.
        EXPECT_GE(records[i].endRef, wanted[i]);
        EXPECT_LE(records[i].endRef, wanted[i] + 1);
    }
    EXPECT_TRUE(records[3].final);
    EXPECT_EQ(records[3].endRef, trace.size());
    // Window deltas partition the run's measured counters exactly.
    IntervalCounters sum = sumWindows(collector);
    EXPECT_EQ(sum.refs, r.refs);
    EXPECT_EQ(sum.cycles, static_cast<std::uint64_t>(r.cycles));
}
